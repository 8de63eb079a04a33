package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeEntriesSlab feeds the entry parser the TCP read loop and the
// spill reader trust arbitrary bytes under an arbitrary claimed count,
// for a fixed-width key (U64Codec's word loop), a variable-width key and
// a payload-carrying codec. It must never panic, over-read or size an
// allocation from the claim alone: it returns an error with the input
// untouched, or exactly n entries plus the unread tail — and whatever it
// accepted re-encodes to the bytes it consumed and decodes again to the
// same entries, payloads copied out of the input buffer. The word loop
// must do exactly what the generic loop does.
func FuzzDecodeEntriesSlab(f *testing.F) {
	u64 := EncodeEntries(nil, []Entry[uint64]{{Key: 7, Proc: 1, Index: 2}, {Key: 3, Proc: 0, Index: 9}}, U64Codec{})
	str := EncodeEntries(nil, []Entry[string]{{Key: "pear", Proc: 2}, {Key: "", Index: 5}}, StringCodec{})
	rec := EncodeEntries(nil, []Entry[uint64]{{Key: 1, Payload: []byte("body")}, {Key: 2}}, NewRecordCodec[uint64](U64Codec{}))
	for _, seed := range [][]byte{u64, str, rec} {
		for codec := uint8(0); codec < 3; codec++ {
			f.Add(seed, int64(2), codec)
			f.Add(seed[:len(seed)-1], int64(2), codec) // truncated
		}
	}
	f.Add(append(u64, 0xAA, 0xBB), int64(2), uint8(0)) // a tail to hand back
	f.Add(u64, int64(-1), uint8(0))
	f.Add(u64, int64(1)<<40, uint8(1)) // a claim no buffer could back
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31), int64(1), uint8(1))
	f.Add(EncodeEntries(nil, []Entry[uint64]{{Key: math.MaxUint64, Proc: math.MaxUint32}, {Key: 1 << 63, Index: 3}, {}}, U64Codec{}), int64(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n int64, codec uint8) {
		switch codec % 3 {
		case 0:
			fuzzDecodeEntries[uint64](t, data, int(n), U64Codec{})
		case 1:
			fuzzDecodeEntries[string](t, data, int(n), StringCodec{})
		default:
			fuzzDecodeEntries[uint64](t, data, int(n), NewRecordCodec[uint64](U64Codec{}))
		}
	})
}

func fuzzDecodeEntries[K comparable](t *testing.T, data []byte, n int, c Codec[K]) {
	in := bytes.Clone(data)
	entries, rest, err := DecodeEntriesSlab(in, n, c, nil)
	if isU64(c) {
		generic, grest, gerr := DecodeEntriesSlab(in, n, Codec[K](genericPath[K]{c}), nil)
		if (err == nil) != (gerr == nil) || len(rest) != len(grest) || err == nil && !sameEntries(entries, generic) {
			t.Fatalf("word loop: %d entries, %d bytes left, err %v; generic: %d, %d, %v",
				len(entries), len(rest), err, len(generic), len(grest), gerr)
		}
	}
	if err != nil {
		if entries != nil || len(rest) != len(in) {
			t.Fatalf("error %v came with %d entries and %d of %d bytes left", err, len(entries), len(rest), len(in))
		}
		return
	}
	if len(entries) != n {
		t.Fatalf("decoded %d entries for a claim of %d", len(entries), n)
	}
	used := len(in) - len(rest)
	if used < 0 || !bytes.Equal(rest, data[used:]) {
		t.Fatalf("tail is not the input's last %d bytes", len(rest))
	}
	wire := EncodeEntries(nil, entries, c)
	if !bytes.Equal(wire, data[:used]) {
		t.Fatalf("accepted bytes do not re-encode to themselves")
	}
	if !bytes.Equal(wire, appendEncodeEntries(nil, entries, c)) {
		t.Fatalf("by-offset encoder differs from the append encoder")
	}
	// Scribbling over the input must not reach a decoded payload.
	for i := range in {
		in[i] ^= 0xFF
	}
	again, tail, err := DecodeEntriesSlab(wire, n, c, nil)
	if err != nil || len(tail) != 0 || len(again) != n {
		t.Fatalf("round trip: %d entries, %d bytes left, err %v", len(again), len(tail), err)
	}
	for i, e := range entries {
		a := again[i]
		if a.Key != e.Key || a.Proc != e.Proc || a.Index != e.Index || !bytes.Equal(a.Payload, e.Payload) {
			t.Fatalf("entry %d: %+v decoded again as %+v", i, e, a)
		}
	}
}
