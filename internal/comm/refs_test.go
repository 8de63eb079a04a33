package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// refWords is the byte form a ref has under every codec, spelled out
// field by field: Norm, Proc and Idx, little-endian.
func refWords(refs []NormRef) []byte {
	var b []byte
	for _, r := range refs {
		b = binary.LittleEndian.AppendUint64(b, r.Norm)
		b = binary.LittleEndian.AppendUint32(b, r.Proc)
		b = binary.LittleEndian.AppendUint32(b, r.Idx)
	}
	return b
}

// checkRefFrame frames a chunk of refs to keys from node 5 under c: the
// frame's payload must be the refs' own words, sized as it is, and decode
// back to the same refs; a decode expecting another origin, one ref of
// another origin, or a payload cut short of whole refs must be refused
// with the input handed back. It returns the refs and the key-only
// entries they stand for.
func checkRefFrame[K any](t *testing.T, name string, c Codec[K], keys []K) ([]NormRef, []Entry[K]) {
	t.Helper()
	const src = 5
	kc, _ := keyCodecOf(c)
	norm := kc.(KeyNormalizer[K]).Norm
	refs := make([]NormRef, len(keys))
	entries := make([]Entry[K], len(keys))
	for i, k := range keys {
		idx := uint32(3*i + 1)
		refs[i] = NormRef{Norm: norm(k), Proc: src, Idx: idx}
		entries[i] = Entry[K]{Key: k, Proc: src, Index: idx}
	}
	byRef := Message[K]{Kind: KData, Src: src, Refs: refs}
	got, want := byRef.AppendWire(nil, c), refWords(refs)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: ref frame payload is not the refs' words:\n%x\n%x", name, got, want)
	}
	if byRef.WireBytes(c) != len(want) || RefsWireBytes(refs) != 16*len(refs) {
		t.Fatalf("%s: refs size %d on the wire, %d bytes framed", name, byRef.WireBytes(c), len(want))
	}
	back, rest, err := DecodeRefsSlab(got, len(refs), src, nil)
	if err != nil || len(rest) != 0 || !slices.Equal(back, refs) {
		t.Fatalf("%s: decode: %v, %d bytes left, %+v for %+v", name, err, len(rest), back, refs)
	}
	refused := func(what string, b []byte, src uint32) {
		t.Helper()
		if got, rest, err := DecodeRefsSlab(b, len(refs), src, nil); err == nil || got != nil || len(rest) != len(b) {
			t.Fatalf("%s: %s decoded: %v", name, what, err)
		}
	}
	refused("a frame of another node", got, src+1)
	refused("a frame cut short", got[:len(got)-1], src)
	// A ref is framed with its own Proc, whatever the message's source,
	// and a decode expecting src refuses one naming another origin.
	stray := slices.Clone(refs)
	stray[len(stray)-1].Proc = src + 1
	odd := (&Message[K]{Kind: KData, Src: src, Refs: stray}).AppendWire(nil, c)
	if !bytes.Equal(odd, refWords(stray)) {
		t.Fatalf("%s: a ref of origin %d is not framed as its words", name, src+1)
	}
	refused("a ref of another origin", odd, src)
	return refs, entries
}

// TestRefFrameIsRefWords: a chunk of refs goes on the wire as the refs'
// own 16 bytes under every codec — a float key with NaNs of both signs, a
// NaN payload, both zeros and both infinities, a signed and a 32-bit
// integer key, and a record codec, whose bare-key sort goes by ref too —
// and decodes back to the same refs. Under U64Codec, whose norm is the
// key, the frame is still byte for byte the key-only entries' frame, so
// the uint64 sorts send and spill the bytes they always have.
func TestRefFrameIsRefWords(t *testing.T) {
	refs, entries := checkRefFrame(t, "uint64", Codec[uint64](U64Codec{}), []uint64{0, 7, 1 << 63, math.MaxUint64, 7})
	byEntry := (&Message[uint64]{Kind: KData, Src: 5, Entries: entries}).AppendWire(nil, U64Codec{})
	if byRef := (&Message[uint64]{Kind: KData, Src: 5, Refs: refs}).AppendWire(nil, U64Codec{}); !bytes.Equal(byRef, byEntry) {
		t.Fatalf("uint64: ref frame payload differs from the entry frame's:\n%x\n%x", byRef, byEntry)
	}
	checkRefFrame(t, "float64", Codec[float64](F64Codec{}), []float64{
		math.Float64frombits(0xfff8000000000001), math.Inf(-1), -2.5, math.Copysign(0, -1), 0,
		3, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7ff8000000000123),
	})
	checkRefFrame(t, "int64", Codec[int64](I64Codec{}), []int64{math.MinInt64, -1, 0, 1, math.MaxInt64})
	checkRefFrame(t, "uint32", Codec[uint32](U32Codec{}), []uint32{0, 1, 1 << 31, math.MaxUint32})
	checkRefFrame(t, "record(uint64)", Codec[uint64](NewRecordCodec[uint64](U64Codec{})), []uint64{9, 1, 1 << 40})
	if _, ok := RefDenorm(Codec[string](StringCodec{})); ok {
		t.Fatal("strings go by ref under an inexact norm")
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

// FuzzDecodeRefs feeds the ref parser the TCP read loop and the spill
// reader trust arbitrary bytes under an arbitrary claimed count and
// origin. It must never panic, over-read or size an allocation from the
// claim alone: it returns an error with the input untouched, or exactly n
// refs plus the unread tail — and whatever it accepted is a ref frame:
// the refs, framed from the same origin, are the bytes it consumed.
func FuzzDecodeRefs(f *testing.F) {
	u64 := refWords([]NormRef{{Norm: 7, Proc: 1, Idx: 2}, {Norm: 3, Proc: 1, Idx: 9}})
	f64 := refWords([]NormRef{{Norm: 1, Proc: 1}, {Norm: 1 << 63, Proc: 1, Idx: 5}})
	nan := refWords([]NormRef{{Norm: F64Codec{}.Norm(math.NaN()), Proc: 1}, {Norm: F64Codec{}.Norm(math.Float64frombits(0xfff8000000000001)), Proc: 1, Idx: 5}})
	for _, seed := range [][]byte{u64, f64, nan} {
		for n := int64(1); n <= 3; n++ { // fewer, as many and more refs than the seed holds
			f.Add(seed, n, uint32(1))
			f.Add(seed[:len(seed)-1], n, uint32(1)) // truncated
			f.Add(seed, n, uint32(0))               // another origin
		}
	}
	f.Add(append(bytes.Clone(u64), 0xAA, 0xBB), int64(2), uint32(1)) // a tail to hand back
	f.Add(u64, int64(-1), uint32(1))
	f.Add(u64, int64(1)<<40, uint32(1)) // a claim no buffer could back
	f.Add(refWords([]NormRef{{Norm: math.MaxUint64, Proc: 1, Idx: math.MaxUint32}, {Proc: 1}}), int64(2), uint32(1))
	f.Add(refWords([]NormRef{{Norm: 5, Proc: 1}, {Norm: 6, Proc: 2}}), int64(2), uint32(1)) // a ref of another origin
	// Two key-only record entries from node 1, 20 bytes each: not whole refs.
	rec := (&Message[uint64]{Src: 1, Entries: []Entry[uint64]{{Key: 1, Proc: 1}, {Key: 2, Proc: 1, Index: 4}}}).AppendWire(nil, NewRecordCodec[uint64](U64Codec{}))
	f.Add(rec, int64(2), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, n int64, src uint32) {
		in := bytes.Clone(data)
		refs, rest, err := DecodeRefsSlab(in, int(n), src, nil)
		if err != nil {
			if refs != nil || len(rest) != len(in) {
				t.Fatalf("error %v came with %d refs and %d of %d bytes left", err, len(refs), len(rest), len(in))
			}
			return
		}
		if int64(len(refs)) != n {
			t.Fatalf("decoded %d refs for a claim of %d", len(refs), n)
		}
		used := len(in) - len(rest)
		if used < 0 || !bytes.Equal(rest, data[used:]) {
			t.Fatalf("tail is not the input's last %d bytes", len(rest))
		}
		if wire := EncodeRefs(nil, refs); !bytes.Equal(wire, data[:used]) {
			t.Fatalf("accepted bytes do not re-frame to themselves")
		}
	})
}
