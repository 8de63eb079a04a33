package keyio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// chunkReader hands out at most n bytes per Read, so the fuzzer decides
// where the stream's read boundaries fall inside keys.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// streamVsDecode holds the StreamDecoder to the whole-buffer decoder on
// the same bytes: the same keys when decode accepts them, ErrTruncated
// exactly when it does not. On accepted input it also checks the property
// pgxsortd's streaming hash stands on — the encoding is bijective, so
// re-encoding the decoded keys reproduces the input byte for byte.
func streamVsDecode[K any](t *testing.T, data []byte, chunk, window int, scan ScanFunc[K],
	decode func([]byte) ([]K, error), app func([]byte, K) []byte, same func(a, b K) bool) {
	want, wantErr := decode(data)
	d := NewStreamDecoder(&chunkReader{data: data, n: chunk}, scan, window)
	var got []K
	var err error
	for err == nil {
		got, err = d.Next(got)
	}
	if wantErr != nil {
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("decode rejects the input (%v) but the stream ended with %v", wantErr, err)
		}
		return
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("decode accepts the input but the stream ended with %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d keys, decode %d", len(got), len(want))
	}
	var round []byte
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("key %d: stream %v, decode %v", i, got[i], want[i])
		}
		round = app(round, got[i])
	}
	if !bytes.Equal(round, data) {
		t.Fatalf("re-encoding %d keys gave %d bytes that differ from the %d-byte input", len(got), len(round), len(data))
	}
	if d.BytesRead() != int64(len(data)) {
		t.Fatalf("BytesRead = %d, want %d", d.BytesRead(), len(data))
	}
}

// FuzzStreamDecoder fuzzes the one parser pgxsortd puts between a socket
// and its engines: arbitrary bytes, arbitrary read-chunk sizes, arbitrary
// (small) decoder windows, all three key types. The whole-buffer
// decoders are the reference.
func FuzzStreamDecoder(f *testing.F) {
	f.Add(EncodeUint64s([]uint64{1, 2, 1 << 63}), uint16(3), byte(0), byte(0))
	f.Add(EncodeFloat64s([]float64{math.NaN(), math.Copysign(0, -1), 1.5}), uint16(8), byte(9), byte(1))
	f.Add(EncodeStrings([]string{"", "a", "a longer key than the window"}), uint16(5), byte(4), byte(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(1), byte(0), byte(0)) // a partial word
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, window, keyType byte) {
		c, w := int(chunk)+1, int(window) // window 0 is the default buffer
		switch keyType % 3 {
		case 0:
			streamVsDecode(t, data, c, w, ScanUint64s, DecodeUint64s, AppendUint64,
				func(a, b uint64) bool { return a == b })
		case 1:
			streamVsDecode(t, data, c, w, ScanFloat64s, DecodeFloat64s, AppendFloat64,
				func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
		case 2:
			streamVsDecode(t, data, c, w, ScanStrings, DecodeStrings, AppendString,
				func(a, b string) bool { return a == b })
		}
	})
}
