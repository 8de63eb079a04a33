package comm

import (
	"encoding/binary"
	"fmt"
)

// StringCodec serializes string keys length-prefixed (uint32 little-endian
// length, then the raw bytes — arbitrary binary, not just ASCII). It is
// the library's first variable-width codec: KeySize is only a nominal
// estimate for sampling and chunking, and the wire helpers use the
// VarCodec methods instead.
//
// StringCodec also implements KeyNormalizer with an *inexact* norm: the
// first 8 bytes of the string, big-endian, zero-padded on the right.
// Lexicographic byte order agrees with numeric order on that image, so
// the engine's ref sort and ref merge apply; strings sharing an 8-byte
// prefix collapse to one norm value, and the engine finishes each
// equal-norm run under the real keys (NormInexact returns true).
type StringCodec struct{}

// stringNominalSize is the sampling/chunking estimate for string keys:
// the 4-byte length prefix plus a guessed dozen bytes of content.
const stringNominalSize = 16

// KeySize is a nominal per-key estimate (StringCodec is variable-width).
func (StringCodec) KeySize() int { return stringNominalSize }

// PutKey is unreachable: the wire helpers always use the VarCodec methods
// for variable-width codecs.
func (StringCodec) PutKey(b []byte, k string) {
	panic("comm: StringCodec.PutKey called; use AppendKey (variable-width codec)")
}

// Key is unreachable; see PutKey.
func (StringCodec) Key(b []byte) string {
	panic("comm: StringCodec.Key called; use ReadKey (variable-width codec)")
}

// KeyBytes is the exact wire size of k: 4-byte length prefix plus bytes.
func (StringCodec) KeyBytes(k string) int { return 4 + len(k) }

// AppendKey appends k's wire form to dst.
func (StringCodec) AppendKey(dst []byte, k string) []byte {
	var lp [4]byte
	binary.LittleEndian.PutUint32(lp[:], uint32(len(k)))
	dst = append(dst, lp[:]...)
	return append(dst, k...)
}

// ReadKey parses one length-prefixed string and returns the remaining
// bytes. The returned string copies out of b (the transport reuses its
// frame buffers).
func (StringCodec) ReadKey(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", b, fmt.Errorf("comm: short string key: have %d bytes, need length prefix", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || len(b)-4 < n {
		return "", b, fmt.Errorf("comm: short string key: have %d bytes, need %d", len(b)-4, n)
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// Norm maps a string to its first 8 bytes, big-endian, zero-padded —
// monotone in lexicographic order but not injective (see NormInexact).
func (StringCodec) Norm(k string) uint64 {
	var v uint64
	n := len(k)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		v |= uint64(k[i]) << (56 - 8*i)
	}
	return v
}

// NormInexact reports that distinct strings can share a norm (equal
// 8-byte prefixes); the engine must break norm ties with real compares.
func (StringCodec) NormInexact() bool { return true }

// RecordCodec wraps a key codec so entries carry an opaque []byte payload
// on the wire: each entry serializes its payload length-prefixed after
// the origin fields. Build one around any key codec to sort key+payload
// records over the TCP transport:
//
//	comm.NewRecordCodec[uint64](comm.U64Codec{})
//
// RecordCodec deliberately does NOT forward the key codec's optional
// interfaces (KeyNormalizer, VarCodec) — the wire helpers and the engine
// unwrap via KeyCodec() and consult the inner codec directly, so a
// RecordCodec around StringCodec still gets variable-width keys and the
// codec's own norm.
type RecordCodec[K any] struct {
	key Codec[K]
}

// NewRecordCodec wraps key so entries under the returned codec carry
// payloads on the wire.
func NewRecordCodec[K any](key Codec[K]) RecordCodec[K] {
	if key == nil {
		panic("comm: NewRecordCodec with nil key codec")
	}
	if _, ok := key.(PayloadCarrier); ok {
		panic("comm: NewRecordCodec around a payload-carrying codec")
	}
	return RecordCodec[K]{key: key}
}

// KeySize delegates to the key codec's (possibly nominal) size.
func (c RecordCodec[K]) KeySize() int { return c.key.KeySize() }

// PutKey delegates to the key codec.
func (c RecordCodec[K]) PutKey(b []byte, k K) { c.key.PutKey(b, k) }

// Key delegates to the key codec.
func (c RecordCodec[K]) Key(b []byte) K { return c.key.Key(b) }

// KeyCodec exposes the wrapped key codec for unwrapping (keyCodecOf, the
// engine's norm discovery).
func (c RecordCodec[K]) KeyCodec() Codec[K] { return c.key }

// CarriesPayload marks entries under this codec as payload-carrying.
func (RecordCodec[K]) CarriesPayload() bool { return true }
