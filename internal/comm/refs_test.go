package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// refsChunk is a chunk of refs from node src under c's norm and the
// key-only entries they stand for.
func refsChunk[K any](c Codec[K], src uint32, keys []K) ([]NormRef, []Entry[K]) {
	kc, _ := keyCodecOf(c)
	norm := kc.(KeyNormalizer[K]).Norm
	refs := make([]NormRef, len(keys))
	entries := make([]Entry[K], len(keys))
	for i, k := range keys {
		idx := uint32(3*i + 1)
		refs[i] = NormRef{Norm: norm(k), Proc: src, Idx: idx}
		entries[i] = Entry[K]{Key: k, Proc: src, Index: idx}
	}
	return refs, entries
}

func checkRefFrame[K any](t *testing.T, name string, c Codec[K], keys []K) {
	t.Helper()
	const src = 5
	refs, entries := refsChunk(c, src, keys)
	byRef := Message[K]{Kind: KData, Src: src, Refs: refs}
	byEntry := Message[K]{Kind: KData, Src: src, Entries: entries}
	got, want := byRef.AppendWire(nil, c), byEntry.AppendWire(nil, c)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: ref frame payload differs from the entry frame's:\n%x\n%x", name, got, want)
	}
	if byRef.WireBytes(c) != len(want) || RefsWireBytes(refs, c) != EntriesWireBytes(entries, c) {
		t.Fatalf("%s: refs size %d on the wire, entries %d", name, byRef.WireBytes(c), len(want))
	}
	if est := RefWireEstimate(c); est != EntryWireEstimate(entries, c) {
		t.Fatalf("%s: refs chunk at %d bytes a key, entries at %d", name, est, EntryWireEstimate(entries, c))
	}
	back, rest, err := DecodeRefsSlab(got, len(refs), src, c, nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%s: decode: %v, %d bytes left", name, err, len(rest))
	}
	for i := range refs {
		if back[i] != refs[i] {
			t.Fatalf("%s: ref %d decoded as %+v, sent %+v", name, i, back[i], refs[i])
		}
	}
	if _, _, err := DecodeRefsSlab(got, len(refs), src+1, c, nil); err == nil {
		t.Fatalf("%s: a frame from node %d decoded as one from %d", name, src, src+1)
	}
	// A ref is framed with its own Proc, whatever the message's source:
	// one naming another origin is that origin's entry on the wire, and
	// a decode expecting src refuses it.
	stray := slices.Clone(refs)
	stray[len(stray)-1].Proc = src + 1
	entries[len(entries)-1].Proc = src + 1
	odd := (&Message[K]{Kind: KData, Src: src, Refs: stray}).AppendWire(nil, c)
	if want := (&Message[K]{Kind: KData, Src: src, Entries: entries}).AppendWire(nil, c); !bytes.Equal(odd, want) {
		t.Fatalf("%s: a ref of origin %d is not framed as its entry", name, src+1)
	}
	if _, rest, err := DecodeRefsSlab(odd, len(stray), src, c, nil); err == nil || len(rest) != len(odd) {
		t.Fatalf("%s: a ref naming origin %d decoded from a frame of node %d", name, src+1, src)
	}
}

// TestRefFrameIsEntryFrame: a chunk of refs goes on the wire byte for byte
// as the key-only entries it stands for, so a ref frame's payload is the
// entry frame's — for a fixed-width integer key, a float key with its
// NaNs and signed zeros, and a record codec, whose entries carry a zero
// payload length — and decodes back to the same refs.
func TestRefFrameIsEntryFrame(t *testing.T) {
	checkRefFrame(t, "uint64", Codec[uint64](U64Codec{}), []uint64{0, 7, 1 << 63, math.MaxUint64, 7})
	checkRefFrame(t, "float64", Codec[float64](F64Codec{}), []float64{
		math.Float64frombits(0xfff8000000000001), math.Inf(-1), -2.5, math.Copysign(0, -1), 0,
		3, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
	})
	checkRefFrame(t, "record(uint64)", Codec[uint64](NewRecordCodec[uint64](U64Codec{})), []uint64{9, 1, 1 << 40})
	if _, ok := RefDenorm(Codec[string](StringCodec{})); ok {
		t.Fatal("strings frame refs under an inexact norm")
	}
}

// TestNormRefIs16Bytes: the origin node fills a ref's padding, so a ref
// is still two words, the size every ref slab and the engine's memory
// accounting assume.
func TestNormRefIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(NormRef{}); n != 16 {
		t.Fatalf("NormRef is %d bytes, want 16", n)
	}
}

// FuzzDecodeRefs feeds the ref parser the TCP read loop trusts arbitrary
// bytes under an arbitrary claimed count and origin, for a fixed-width
// integer key (U64Codec's word loop, bare and in a record codec) and a
// float key. It must never panic, over-read or size an allocation from
// the claim alone: it returns an error with the input untouched, or
// exactly n refs plus the unread tail — and whatever it accepted is a ref
// frame: the refs, framed from the same origin, are the bytes it
// consumed. The word loop must do exactly what the generic loop does.
func FuzzDecodeRefs(f *testing.F) {
	u64 := (&Message[uint64]{Src: 1, Refs: []NormRef{{Norm: 7, Proc: 1, Idx: 2}, {Norm: 3, Proc: 1, Idx: 9}}}).AppendWire(nil, U64Codec{})
	f64 := (&Message[float64]{Src: 1, Refs: []NormRef{{Norm: 1, Proc: 1, Idx: 0}, {Norm: 1 << 63, Proc: 1, Idx: 5}}}).AppendWire(nil, F64Codec{})
	rec := (&Message[uint64]{Src: 1, Refs: []NormRef{{Norm: 1, Proc: 1}, {Norm: 2, Proc: 1, Idx: 4}}}).AppendWire(nil, NewRecordCodec[uint64](U64Codec{}))
	for _, seed := range [][]byte{u64, f64, rec} {
		for codec := uint8(0); codec < 3; codec++ {
			f.Add(seed, int64(2), uint32(1), codec)
			f.Add(seed[:len(seed)-1], int64(2), uint32(1), codec) // truncated
			f.Add(seed, int64(2), uint32(0), codec)               // another origin
		}
	}
	f.Add(append(u64, 0xAA, 0xBB), int64(2), uint32(1), uint8(0)) // a tail to hand back
	f.Add(u64, int64(-1), uint32(1), uint8(0))
	f.Add(u64, int64(1)<<40, uint32(1), uint8(1)) // a claim no buffer could back
	f.Add(binary.LittleEndian.AppendUint32(rec[:20], 1), int64(1), uint32(1), uint8(2))
	f.Add((&Message[uint64]{Src: 1, Refs: []NormRef{{Norm: math.MaxUint64, Proc: 1, Idx: math.MaxUint32}, {Proc: 1}}}).AppendWire(nil, U64Codec{}), int64(2), uint32(1), uint8(0))
	f.Add((&Message[uint64]{Src: 1, Refs: []NormRef{{Norm: 5, Proc: 1}, {Norm: 6, Proc: 2}}}).AppendWire(nil, U64Codec{}), int64(2), uint32(1), uint8(0)) // a ref of another origin
	f.Fuzz(func(t *testing.T, data []byte, n int64, src uint32, codec uint8) {
		switch codec % 3 {
		case 0:
			fuzzDecodeRefs[uint64](t, data, int(n), src, U64Codec{})
		case 1:
			fuzzDecodeRefs[float64](t, data, int(n), src, F64Codec{})
		default:
			fuzzDecodeRefs[uint64](t, data, int(n), src, NewRecordCodec[uint64](U64Codec{}))
		}
	})
}

func fuzzDecodeRefs[K any](t *testing.T, data []byte, n int, src uint32, c Codec[K]) {
	in := bytes.Clone(data)
	refs, rest, err := DecodeRefsSlab(in, n, src, c, nil)
	generic, grest, gerr := DecodeRefsSlab(in, n, src, genericRefs(c), nil)
	if (err == nil) != (gerr == nil) || len(rest) != len(grest) || !slices.Equal(refs, generic) {
		t.Fatalf("word loop: %d refs, %d bytes left, err %v; generic: %d, %d, %v",
			len(refs), len(rest), err, len(generic), len(grest), gerr)
	}
	if err != nil {
		if refs != nil || len(rest) != len(in) {
			t.Fatalf("error %v came with %d refs and %d of %d bytes left", err, len(refs), len(rest), len(in))
		}
		return
	}
	if len(refs) != n {
		t.Fatalf("decoded %d refs for a claim of %d", len(refs), n)
	}
	used := len(in) - len(rest)
	if used < 0 || !bytes.Equal(rest, data[used:]) {
		t.Fatalf("tail is not the input's last %d bytes", len(rest))
	}
	m := Message[K]{Src: int(src), Refs: refs}
	if wire := m.AppendWire(nil, c); !bytes.Equal(wire, data[:used]) {
		t.Fatalf("accepted bytes do not re-frame to themselves")
	}
}

// genericRefs is c with its key codec hidden from the word loops
// (genericPath), inside the record codec when c is one.
func genericRefs[K any](c Codec[K]) Codec[K] {
	if kc, withPay := keyCodecOf(c); withPay {
		return NewRecordCodec[K](genericPath[K]{kc})
	}
	return genericPath[K]{c}
}
