package keyio

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// This file is the streaming half of the canonical encoding: incremental
// scanners that parse keys out of a byte window as it fills, and a
// StreamDecoder that drives them over an io.Reader. pgxsortd's ingress
// uses it to parse request bodies as they arrive instead of buffering
// whole datasets with io.ReadAll, so an upload's resident footprint is
// one read buffer, not the dataset.

// DefaultStreamBuf is the read granularity of a StreamDecoder: large
// enough to amortize syscalls, small enough that a stalled upload pins
// only kilobytes.
const DefaultStreamBuf = 64 << 10

// ErrTruncated reports a canonical key stream that ended mid-key (a
// partial 8-byte word, or a string record cut inside its length prefix
// or body).
var ErrTruncated = errors.New("keyio: truncated key stream")

// ScanFunc incrementally parses canonical key bytes: it appends every
// complete key b holds to dst and reports how many bytes it consumed.
// An incomplete trailing key is left unconsumed for the next call, so a
// scanner never needs more than one key of lookahead.
type ScanFunc[K any] func(b []byte, dst []K) ([]K, int)

// ScanUint64s is the ScanFunc for the canonical uint64 format
// (little-endian 8-byte words).
func ScanUint64s(b []byte, dst []uint64) ([]uint64, int) {
	n := len(b) / 8
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst, 8 * n
}

// ScanFloat64s is the ScanFunc for the canonical float64 format
// (little-endian IEEE-754 bit patterns, NaN and -0.0 preserved).
func ScanFloat64s(b []byte, dst []float64) ([]float64, int) {
	n := len(b) / 8
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return dst, 8 * n
}

// ScanStrings is the ScanFunc for the canonical string format
// (uint32-LE length prefix, then raw bytes). A record whose body has not
// fully arrived is left unconsumed.
func ScanStrings(b []byte, dst []string) ([]string, int) {
	off := 0
	for {
		if len(b)-off < 4 {
			return dst, off
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if len(b)-off-4 < n {
			return dst, off
		}
		dst = append(dst, string(b[off+4:off+4+n]))
		off += 4 + n
	}
}

// AppendUint64, AppendFloat64 and AppendString are the scanners'
// inverses: each appends one key's canonical bytes to dst. pgxsortd's
// egress encodes sorted entries through them a window at a time, so a
// response is rendered straight from the merge output without an
// intermediate key slice.
func AppendUint64(dst []byte, k uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, k)
}

func AppendFloat64(dst []byte, k float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(k))
}

func AppendString(dst []byte, k string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(k))), k...)
}

// StreamDecoder pulls canonical key bytes from r and yields keys in
// batches, holding at most one read buffer (plus a partial trailing key)
// resident regardless of stream length.
type StreamDecoder[K any] struct {
	r    io.Reader
	scan ScanFunc[K]
	buf  []byte
	have int // unconsumed bytes at buf[:have]
	read int64
	eof  bool
}

// NewStreamDecoder builds a decoder over r using scan for the key
// domain. bufBytes sizes the read buffer (<= 0 means DefaultStreamBuf);
// the buffer grows only if a single key outgrows it (a long string
// record).
func NewStreamDecoder[K any](r io.Reader, scan ScanFunc[K], bufBytes int) *StreamDecoder[K] {
	if bufBytes <= 0 {
		bufBytes = DefaultStreamBuf
	}
	return &StreamDecoder[K]{r: r, scan: scan, buf: make([]byte, bufBytes)}
}

// Next reads from the stream until it completes at least one key,
// appending completed keys to dst. It returns the extended slice; the
// error is nil when keys were appended and more input may follow, io.EOF
// when the stream ended cleanly (possibly with final keys appended in
// the same call), ErrTruncated when it ended mid-key, or the reader's
// error verbatim.
func (d *StreamDecoder[K]) Next(dst []K) ([]K, error) {
	for {
		if d.eof {
			if d.have > 0 {
				return dst, ErrTruncated
			}
			return dst, io.EOF
		}
		if d.have == len(d.buf) {
			// The unconsumed tail fills the buffer: one key is larger
			// than the window. Double it so the scan can complete.
			d.buf = append(d.buf, make([]byte, len(d.buf))...)
		}
		n, err := d.r.Read(d.buf[d.have:])
		d.have += n
		d.read += int64(n)
		var consumed int
		dst, consumed = d.scan(d.buf[:d.have], dst)
		if consumed > 0 {
			d.have = copy(d.buf, d.buf[consumed:d.have])
		}
		switch {
		case errors.Is(err, io.EOF):
			d.eof = true
			if d.have > 0 {
				return dst, ErrTruncated
			}
			return dst, io.EOF
		case err != nil:
			return dst, err
		case consumed > 0:
			return dst, nil
		}
	}
}

// BytesRead reports the raw stream bytes consumed so far, including any
// unscanned tail.
func (d *StreamDecoder[K]) BytesRead() int64 { return d.read }
