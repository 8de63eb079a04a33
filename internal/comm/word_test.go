package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pgxsort/internal/alloc"
)

// genericPath hides a codec from the word loops — isU64 does not know
// its type — so entries and refs under it take the generic loops, the
// reference the word loops must equal. It keeps the codec's norm and
// inverse, so refs still frame under it.
type genericPath[K any] struct{ Codec[K] }

func (c genericPath[K]) Norm(k K) uint64   { return c.Codec.(KeyNormalizer[K]).Norm(k) }
func (c genericPath[K]) Denorm(n uint64) K { return c.Codec.(KeyDenormalizer[K]).Denorm(n) }

// genericLoops is c with its key codec hidden from the word loops
// (genericPath), inside the record codec when c is one.
func genericLoops[K any](c Codec[K]) Codec[K] {
	if kc, withPay := keyCodecOf(c); withPay {
		return NewRecordCodec[K](genericPath[K]{kc})
	}
	return genericPath[K]{c}
}

// sameEntries reports whether two decodes agree entry for entry: key,
// origin and a nil payload.
func sameEntries[K comparable](a, b []Entry[K]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Proc != b[i].Proc || a[i].Index != b[i].Index || a[i].Payload != nil || b[i].Payload != nil {
			return false
		}
	}
	return true
}

// checkWordPath holds U64Codec's word loops to the generic loops over
// keys: the entries standing for them and the refs, bare and under a
// record codec, must encode to the same bytes and decode to the same
// values, and every malformed input one refuses the other refuses.
func checkWordPath(t *testing.T, name string, keys []uint64, rng *rand.Rand) {
	t.Helper()
	type K = uint64
	c := Codec[K](U64Codec{})
	if !isU64(c) || isU64(Codec[K](genericPath[K]{c})) {
		t.Fatalf("%s: U64Codec must take the word path and its wrapper must not", name)
	}
	gen := Codec[K](genericPath[K]{c})

	entries := make([]Entry[K], len(keys))
	for i, k := range keys {
		entries[i] = Entry[K]{Key: k, Proc: rng.Uint32(), Index: rng.Uint32()}
	}
	wire := EncodeEntries(nil, entries, c)
	if want := EncodeEntries(nil, entries, gen); !bytes.Equal(wire, want) {
		t.Fatalf("%s: entries encode to\n%x\nby word, to\n%x\ngeneric", name, wire, want)
	}
	if want := appendEncodeEntries(nil, entries, c); !bytes.Equal(wire, want) {
		t.Fatalf("%s: entries encode differently from the append encoder", name)
	}
	// Decode into a recycled slab whose entries still hold payloads.
	var pool alloc.SlabPool[Entry[K]]
	size := 1
	for size < len(keys) {
		size *= 2 // the class a Get of len(keys) takes from
	}
	dirty := make([]Entry[K], size)
	for i := range dirty {
		dirty[i].Payload = []byte{1}
	}
	pool.Put(dirty)
	byWord, rest, err := DecodeEntriesSlab(wire, len(keys), c, &pool)
	if _, hits, _ := pool.Stats(); len(keys) > 0 && hits != 1 {
		t.Fatalf("%s: the decode did not reuse the recycled slab", name)
	}
	generic, grest, gerr := DecodeEntriesSlab(wire, len(keys), gen, nil)
	if err != nil || gerr != nil || len(rest) != 0 || len(grest) != 0 {
		t.Fatalf("%s: decode: %v / %v, %d / %d bytes left", name, err, gerr, len(rest), len(grest))
	}
	if !sameEntries(byWord, generic) || !sameEntries(byWord, entries) {
		t.Fatalf("%s: entries decode differently by word and generic", name)
	}

	const src = 3
	kc, _ := keyCodecOf(c)
	refs := make([]NormRef, len(keys))
	for i, k := range keys {
		refs[i] = NormRef{Norm: kc.(KeyNormalizer[K]).Norm(k), Proc: src, Idx: rng.Uint32()}
	}
	for _, pair := range [][2]Codec[K]{{c, gen}, {NewRecordCodec[K](c), NewRecordCodec[K](gen)}} {
		word, generic := pair[0], pair[1]
		wire := EncodeRefs(nil, refs, word)
		if want := EncodeRefs(nil, refs, generic); !bytes.Equal(wire, want) {
			t.Fatalf("%s: refs encode to\n%x\nby word, to\n%x\ngeneric", name, wire, want)
		}
		back, rest, err := DecodeRefsSlab(wire, len(refs), src, word, nil)
		gback, grest, gerr := DecodeRefsSlab(wire, len(refs), src, generic, nil)
		if err != nil || gerr != nil || len(rest) != 0 || len(grest) != 0 {
			t.Fatalf("%s: ref decode: %v / %v, %d / %d bytes left", name, err, gerr, len(rest), len(grest))
		}
		for i := range refs {
			if back[i] != refs[i] || gback[i] != refs[i] {
				t.Fatalf("%s: ref %d decoded as %+v by word and %+v generic, sent %+v", name, i, back[i], gback[i], refs[i])
			}
		}
		if len(refs) == 0 {
			continue
		}
		per := len(wire) / len(refs)
		refused := func(what string, b []byte, n int, src uint32) {
			t.Helper()
			_, wrest, werr := DecodeRefsSlab(b, n, src, word, nil)
			_, grest, gerr := DecodeRefsSlab(b, n, src, generic, nil)
			if werr == nil || gerr == nil || len(wrest) != len(b) || len(grest) != len(b) {
				t.Fatalf("%s: %s: word loop returned %v, generic %v", name, what, werr, gerr)
			}
		}
		refused("short buffer", wire[:len(wire)-1], len(refs), src)
		refused("another origin", wire, len(refs), src+1)
		odd := bytes.Clone(wire)
		binary.LittleEndian.PutUint32(odd[(len(refs)-1)*per+kc.KeySize():], src+1) // the last ref's origin
		refused("one ref of another origin", odd, len(refs), src)
		if per > kc.KeySize()+originBytes {
			paid := bytes.Clone(wire)
			paid[len(refs)/2*per+per-1] = 1 // a payload length's top byte
			refused("a payload", paid, len(refs), src)
		}
		// Trailing bytes are handed back, alike, for the caller to refuse.
		tail := append(bytes.Clone(wire), 0xAA, 0xBB)
		_, wrest, werr := DecodeRefsSlab(tail, len(refs), src, word, nil)
		_, grest, gerr = DecodeRefsSlab(tail, len(refs), src, generic, nil)
		if werr != nil || gerr != nil || !bytes.Equal(wrest, []byte{0xAA, 0xBB}) || !bytes.Equal(grest, wrest) {
			t.Fatalf("%s: trailing bytes: %x by word (%v), %x generic (%v)", name, wrest, werr, grest, gerr)
		}
	}

	if len(keys) > 0 {
		for _, codec := range []Codec[K]{c, gen} {
			if _, rest, err := DecodeEntriesSlab(wire[:len(wire)-1], len(keys), codec, nil); err == nil || len(rest) != len(wire)-1 {
				t.Fatalf("%s: %T decoded a short buffer", name, codec)
			}
		}
	}
	tail := append(bytes.Clone(wire), 0xCC)
	_, wrest, werr := DecodeEntriesSlab(tail, len(keys), c, nil)
	_, grest, gerr = DecodeEntriesSlab(tail, len(keys), gen, nil)
	if werr != nil || gerr != nil || !bytes.Equal(wrest, []byte{0xCC}) || !bytes.Equal(grest, wrest) {
		t.Fatalf("%s: trailing bytes: %x by word (%v), %x generic (%v)", name, wrest, werr, grest, gerr)
	}
}

// sameRecords reports whether decoded records agree with want entry for
// entry: key, origin and payload bytes, an empty payload decoded as nil.
func sameRecords(decoded, want []Entry[uint64]) bool {
	if len(decoded) != len(want) {
		return false
	}
	for i, a := range decoded {
		if b := want[i]; a.Key != b.Key || a.Proc != b.Proc || a.Index != b.Index || !bytes.Equal(a.Payload, b.Payload) ||
			(a.Payload == nil) != (len(a.Payload) == 0) {
			return false
		}
	}
	return true
}

// checkRecordWordPath holds the word loops under RecordCodec{U64Codec}
// to the generic loops over records whose payloads are nil or empty as
// nils says: the frame must be the generic loop's byte for byte and the
// same whether an empty payload is nil or not, decode to the same
// records, payloads copied out of the frame, and every cut or corrupted
// frame must be refused with the generic loop's error, input untouched.
func checkRecordWordPath(t *testing.T, name string, recs []Entry[uint64], nils bool) {
	t.Helper()
	type K = uint64
	word, gen := Codec[K](NewRecordCodec[K](U64Codec{})), genericLoops(Codec[K](NewRecordCodec[K](U64Codec{})))
	for i := range recs {
		if len(recs[i].Payload) == 0 {
			if nils {
				recs[i].Payload = nil
			} else {
				recs[i].Payload = []byte{}
			}
		}
	}
	wire := EncodeEntries(nil, recs, word)
	if want := EncodeEntries(nil, recs, gen); !bytes.Equal(wire, want) {
		t.Fatalf("%s: records encode to\n%x\nby word, to\n%x\ngeneric", name, wire, want)
	}
	if want := appendEncodeEntries(nil, recs, word); !bytes.Equal(wire, want) {
		t.Fatalf("%s: records encode differently from the append encoder", name)
	}
	flipped := slices.Clone(recs) // every empty payload nil for empty and empty for nil
	for i, e := range flipped {
		if e.Payload == nil {
			flipped[i].Payload = []byte{}
		} else if len(e.Payload) == 0 {
			flipped[i].Payload = nil
		}
	}
	if got := EncodeEntries(nil, flipped, word); !bytes.Equal(got, wire) {
		t.Fatalf("%s: a nil and an empty payload encode differently", name)
	}

	// Decode into a recycled slab whose entries still hold payloads.
	var pool alloc.SlabPool[Entry[K]]
	dirty := make([]Entry[K], max(len(recs), 1))
	for i := range dirty {
		dirty[i].Payload = []byte{1, 2}
	}
	pool.Put(dirty)
	in := bytes.Clone(wire)
	byWord, rest, err := DecodeEntriesSlab(in, len(recs), word, &pool)
	generic, grest, gerr := DecodeEntriesSlab(wire, len(recs), gen, nil)
	if err != nil || gerr != nil || len(rest) != 0 || len(grest) != 0 {
		t.Fatalf("%s: decode: %v / %v, %d / %d bytes left", name, err, gerr, len(rest), len(grest))
	}
	if !sameRecords(byWord, recs) || !sameRecords(generic, recs) {
		t.Fatalf("%s: records decode differently by word and generic", name)
	}
	for i := range in {
		in[i] ^= 0xFF
	}
	if !sameRecords(byWord, recs) {
		t.Fatalf("%s: a decoded payload aliases the frame", name)
	}

	refused := func(what string, b []byte, n int) {
		t.Helper()
		got, wrest, werr := DecodeEntriesSlab(b, n, word, nil)
		_, grest, gerr := DecodeEntriesSlab(b, n, gen, nil)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() || got != nil || len(wrest) != len(b) || len(grest) != len(b) {
			t.Fatalf("%s: %s: word loop returned %v, generic %v", name, what, werr, gerr)
		}
	}
	for cut := 0; cut < len(wire); cut++ {
		refused(fmt.Sprintf("frame cut at byte %d", cut), wire[:cut], len(recs))
	}
	per := entryWordBytes + payloadLenBytes
	at := 0
	for i, e := range recs {
		for _, plen := range []uint32{uint32(len(wire) - at - per + 1), math.MaxUint32} {
			long := bytes.Clone(wire)
			binary.LittleEndian.PutUint32(long[at+entryWordBytes:], plen)
			refused(fmt.Sprintf("record %d's length %d running past the frame", i, plen), long, len(recs))
		}
		at += per + len(e.Payload)
	}
	// A length that stops short misaligns the records after it: both
	// loops must read the same thing into them, or refuse alike.
	for i, e := range recs {
		if len(e.Payload) == 0 {
			continue
		}
		short := bytes.Clone(wire)
		off := 0
		for _, f := range recs[:i] {
			off += per + len(f.Payload)
		}
		binary.LittleEndian.PutUint32(short[off+entryWordBytes:], uint32(len(e.Payload)-1))
		got, wrest, werr := DecodeEntriesSlab(short, len(recs), word, nil)
		want, grest, gerr := DecodeEntriesSlab(short, len(recs), gen, nil)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() || !bytes.Equal(wrest, grest) || !sameRecords(got, want) || !sameRecords(want, got) {
			t.Fatalf("%s: record %d one byte short: word loop %v, generic %v", name, i, werr, gerr)
		}
	}
	tail := append(bytes.Clone(wire), 0xAA, 0xBB, 0xCC)
	got, wrest, werr := DecodeEntriesSlab(tail, len(recs), word, nil)
	if werr != nil || !bytes.Equal(wrest, []byte{0xAA, 0xBB, 0xCC}) || !sameRecords(got, recs) {
		t.Fatalf("%s: trailing bytes: %x left (%v)", name, wrest, werr)
	}
}

// TestWordPathMatchesGenericLoops: U64Codec's word loops equal the
// generic loops — entries, records under RecordCodec{U64Codec}, and refs
// bare and inside a record codec, encode to the same bytes and decode to
// the same values — on the extremes (0, MaxUint64, the top bit alone)
// and on random keys of every length up to 64, and refuse the same
// malformed inputs with the same error. Records carry payloads of 0, 1
// and 128 bytes and a mix, empty ones nil and not. The other built-in
// codecs take the generic loops.
func TestWordPathMatchesGenericLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(20170530))
	checkWordPath(t, "extremes", []uint64{0, math.MaxUint64, 1 << 63, 1}, rng)
	for n := 0; n <= 64; n++ {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		checkWordPath(t, "random", keys, rng)
	}
	for _, nils := range []bool{true, false} {
		for _, size := range []int{0, 1, 128, -1} {
			for _, n := range []int{0, 1, 2, 7} {
				recs := make([]Entry[uint64], n)
				for i := range recs {
					plen := size
					if size < 0 { // a mix
						plen = []int{0, 1, 128, 3, 0, 200, 17}[i%7]
					}
					pay := make([]byte, plen)
					rng.Read(pay)
					recs[i] = Entry[uint64]{Key: rng.Uint64(), Payload: pay, Proc: rng.Uint32(), Index: rng.Uint32()}
				}
				checkRecordWordPath(t, fmt.Sprintf("%d records of %d-byte payloads, nil %v", n, size, nils), recs, nils)
			}
		}
	}
	if isU64(Codec[int64](I64Codec{})) || isU64(Codec[float64](F64Codec{})) || isU64(Codec[uint32](U32Codec{})) {
		t.Fatal("a codec other than U64Codec takes the word path")
	}
}
