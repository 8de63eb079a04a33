package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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

// TestWordPathMatchesGenericLoops: U64Codec's word loops equal the
// generic loops — entries, and refs bare and inside a record codec,
// encode to the same bytes and decode to the same values — on the
// extremes (0, MaxUint64, the top bit alone) and on random keys of every
// length up to 64, and refuse the same malformed inputs. The other
// built-in codecs take the generic loops.
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
	if isU64(Codec[int64](I64Codec{})) || isU64(Codec[float64](F64Codec{})) || isU64(Codec[uint32](U32Codec{})) {
		t.Fatal("a codec other than U64Codec takes the word path")
	}
}
