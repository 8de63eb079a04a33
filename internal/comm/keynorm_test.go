package comm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// checkMonotone verifies norm preserves the order of an ascending slice.
func checkMonotone[K any](t *testing.T, sorted []K, norm func(K) uint64) {
	t.Helper()
	for i := 1; i < len(sorted); i++ {
		if norm(sorted[i-1]) >= norm(sorted[i]) {
			t.Fatalf("norm not strictly monotone at %d: norm(%v)=%#x >= norm(%v)=%#x",
				i, sorted[i-1], norm(sorted[i-1]), sorted[i], norm(sorted[i]))
		}
	}
}

func TestU64Norm(t *testing.T) {
	vals := []uint64{0, 1, 2, 1 << 20, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	checkMonotone(t, vals, U64Codec{}.Norm)
	if (U64Codec{}).Norm(42) != 42 {
		t.Fatal("uint64 norm must be the identity")
	}
}

func TestU32Norm(t *testing.T) {
	vals := []uint32{0, 1, 1 << 16, math.MaxUint32 - 1, math.MaxUint32}
	checkMonotone(t, vals, U32Codec{}.Norm)
	if (U32Codec{}).Norm(math.MaxUint32) != math.MaxUint32 {
		t.Fatal("uint32 norm must widen, not shift")
	}
}

func TestI64Norm(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1, 1 << 40, math.MaxInt64}
	checkMonotone(t, vals, I64Codec{}.Norm)
	if (I64Codec{}).Norm(math.MinInt64) != 0 {
		t.Fatal("MinInt64 must map to 0")
	}
	if (I64Codec{}).Norm(math.MaxInt64) != math.MaxUint64 {
		t.Fatal("MaxInt64 must map to MaxUint64")
	}
}

// TestF64NormTotalOrder pins the IEEE-754 total order the engine
// produces for float keys: -NaN < -Inf < finite negatives < -0 < +0 <
// finite positives < +Inf < +NaN.
func TestF64NormTotalOrder(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | (1 << 63))
	vals := []float64{
		negNaN,
		math.Inf(-1),
		-math.MaxFloat64,
		-1,
		-math.SmallestNonzeroFloat64,
		math.Copysign(0, -1),
		0,
		math.SmallestNonzeroFloat64,
		1,
		math.MaxFloat64,
		math.Inf(1),
		math.NaN(),
	}
	checkMonotone(t, vals, F64Codec{}.Norm)
}

// TestF64NormMatchesLess checks the norm agrees with < wherever < itself
// defines an order (no NaN involved).
func TestF64NormMatchesLess(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -3.5, -1, -0.1, math.Copysign(0, -1), 0, 0.1, 1, 3.5, 1e300, math.Inf(1)}
	norm := F64Codec{}.Norm
	for i, a := range vals {
		for j, b := range vals {
			nl := norm(a) < norm(b)
			// -0 and +0 are equal under < but strictly ordered by the norm.
			l := a < b || (i < j && a == b)
			if nl != l {
				t.Fatalf("norm order (%v) disagrees with < for (%v, %v)", nl, a, b)
			}
		}
	}
}

// Named types of each kind: NormFor resolves them by kind.
type (
	userID int32
	score  float32
	tag    string
)

// normKind holds NormFor[K] for one key type K to `<`, on keys
// reinterpreted from raw 64-bit words.
type normKind struct {
	name string
	// pair checks two words as keys; draw checks every adjacent pair of
	// the words' keys once sorted, where near-equal keys sit together.
	pair func(t *testing.T, a, b uint64)
	draw func(t *testing.T, words []uint64)
}

// normKindOf checks the one property a norm has: a < b implies
// norm(a) <= norm(b), strictly unless the norm is reported inexact. Keys
// `<` does not order (equal; a float NaN on either side) assert nothing
// here — TestNormForFloatTotalOrder pins where the norm puts those.
func normKindOf[K cmp.Ordered](name string, wantInexact bool, key func(uint64) K) normKind {
	norm, inexact := NormFor[K]()
	check := func(t *testing.T, a, b K) {
		t.Helper()
		if inexact != wantInexact {
			t.Fatalf("%s: NormFor reports inexact = %v", name, inexact)
		}
		if b < a {
			a, b = b, a
		}
		if !(a < b) {
			return
		}
		if na, nb := norm(a), norm(b); na > nb || !inexact && na == nb {
			t.Fatalf("%s: %v < %v but norms %#x, %#x", name, a, b, na, nb)
		}
	}
	return normKind{
		name: name,
		pair: func(t *testing.T, a, b uint64) { check(t, key(a), key(b)) },
		draw: func(t *testing.T, words []uint64) {
			keys := make([]K, len(words))
			for i, w := range words {
				keys[i] = key(w)
			}
			slices.Sort(keys)
			for i := 1; i < len(keys); i++ {
				check(t, keys[i-1], keys[i])
			}
		},
	}
}

// wordString reads a word as a string of zero to twelve bytes — the
// word's eight, then its first four again — so prefixes of one another
// occur, and strings that differ only past the eight bytes the norm sees.
func wordString(w uint64) string {
	b := binary.BigEndian.AppendUint64(nil, w|0x2020202020202020)
	return string(append(b, b[:4]...)[:w%13])
}

// normKinds is every built-in ordered type, and a named integer, float
// and string type.
var normKinds = []normKind{
	normKindOf("int", false, func(w uint64) int { return int(w) }),
	normKindOf("int8", false, func(w uint64) int8 { return int8(w) }),
	normKindOf("int16", false, func(w uint64) int16 { return int16(w) }),
	normKindOf("int32", false, func(w uint64) int32 { return int32(w) }),
	normKindOf("int64", false, func(w uint64) int64 { return int64(w) }),
	normKindOf("uint", false, func(w uint64) uint { return uint(w) }),
	normKindOf("uint8", false, func(w uint64) uint8 { return uint8(w) }),
	normKindOf("uint16", false, func(w uint64) uint16 { return uint16(w) }),
	normKindOf("uint32", false, func(w uint64) uint32 { return uint32(w) }),
	normKindOf("uint64", false, func(w uint64) uint64 { return w }),
	normKindOf("uintptr", false, func(w uint64) uintptr { return uintptr(w) }),
	normKindOf("float32", false, func(w uint64) float32 { return math.Float32frombits(uint32(w)) }),
	normKindOf("float64", false, math.Float64frombits),
	normKindOf("string", true, wordString),
	normKindOf("userID", false, func(w uint64) userID { return userID(w) }),
	normKindOf("score", false, func(w uint64) score { return score(math.Float32frombits(uint32(w))) }),
	normKindOf("tag", true, func(w uint64) tag { return tag(wordString(w)) }),
}

// TestNormForKeyKinds: every ordered kind has a norm, monotone against
// `<` and injective where reported exact, over a draw of random words
// beside the words at which a width wraps or a sign flips.
func TestNormForKeyKinds(t *testing.T) {
	words := []uint64{0, 1, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0xffff, 1<<31 - 1, 1 << 31, 1<<32 - 1,
		1<<63 - 1, 1 << 63, math.MaxUint64, 0x7f800000, 0xff800000, 0x7ff0000000000000, 0xfff0000000000000}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		words = append(words, x, x>>uint(i%64)) // full width, and small magnitudes
	}
	for _, kind := range normKinds {
		t.Run(kind.name, func(t *testing.T) { kind.draw(t, words) })
	}
}

// TestNormForFloatTotalOrder pins both float widths to the IEEE-754
// total order, the values `<` leaves unordered or equal included.
func TestNormForFloatTotalOrder(t *testing.T) {
	norm64, _ := NormFor[float64]()
	checkMonotone(t, []float64{
		math.Float64frombits(0xfff8000000000001), math.Inf(-1), -math.MaxFloat64, -1,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		1, math.MaxFloat64, math.Inf(1), math.Float64frombits(0x7ff8000000000001),
	}, norm64)
	norm32, _ := NormFor[float32]()
	checkMonotone(t, []float32{
		math.Float32frombits(0xffc00001), float32(math.Inf(-1)), -math.MaxFloat32, -1,
		-math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32,
		1, math.MaxFloat32, float32(math.Inf(1)), math.Float32frombits(0x7fc00001),
	}, norm32)
	// A signalling NaN keeps its place among the NaNs: the norm reads the
	// key's own bits.
	if quiet, signalling := norm32(math.Float32frombits(0x7fc00000)), norm32(math.Float32frombits(0x7fa00000)); signalling >= quiet {
		t.Fatalf("float32 NaN payloads out of order: %#x >= %#x", signalling, quiet)
	}
}

var normSink uint64

// TestNormForNamedTypeAllocs: a named type's norm boxes nothing per key.
func TestNormForNamedTypeAllocs(t *testing.T) {
	id, _ := NormFor[userID]()
	str, _ := NormFor[tag]()
	k, s := userID(-5), tag("a-named-string-key")
	if n := testing.AllocsPerRun(100, func() { normSink += id(k) + str(s) }); n != 0 {
		t.Fatalf("norms of a named integer and a named string allocate %v times a call", n)
	}
}

// denormRoundTrip requires Denorm(Norm(k)) to be k, bit for bit, for
// the key w reinterprets.
func denormRoundTrip[K any, C interface {
	KeyNormalizer[K]
	KeyDenormalizer[K]
	Codec[K]
}](t *testing.T, c C, w uint64) {
	t.Helper()
	k := c.Key(binary.LittleEndian.AppendUint64(nil, w))
	b, back := make([]byte, c.KeySize()), make([]byte, c.KeySize())
	c.PutKey(b, k)
	c.PutKey(back, c.Denorm(c.Norm(k)))
	if !bytes.Equal(b, back) {
		t.Fatalf("%T: Denorm(Norm(%x)) is %x", c, b, back)
	}
}

// FuzzNormOrder: two raw words, reinterpreted as every kind in turn, and
// as the key of every codec with a Denorm, whose round trip through the
// norm must give the key back bit for bit (NaN payloads and -0 included).
func FuzzNormOrder(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1<<63-1), uint64(1<<63))
	f.Add(uint64(0x7fffffff), uint64(0x80000000))
	f.Add(uint64(0x7ff8000000000000), uint64(0xfff0000000000000)) // NaN beside -Inf
	f.Add(uint64(0x6162636465666768), uint64(0x6162636465666700)) // strings sharing a prefix
	f.Fuzz(func(t *testing.T, a, b uint64) {
		for _, kind := range normKinds {
			kind.pair(t, a, b)
		}
		for _, w := range []uint64{a, b} {
			denormRoundTrip[uint64](t, U64Codec{}, w)
			denormRoundTrip[int64](t, I64Codec{}, w)
			denormRoundTrip[float64](t, F64Codec{}, w)
			denormRoundTrip[uint32](t, U32Codec{}, w)
		}
	})
}

// TestNormSortMatchesNative cross-checks on random-ish data: sorting by
// norm equals sorting natively for each integer codec type.
func TestNormSortMatchesNative(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	var u64s []uint64
	for i := 0; i < 500; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u64s = append(u64s, x)
	}
	byNorm := append([]uint64(nil), u64s...)
	native := append([]uint64(nil), u64s...)
	norm := U64Codec{}.Norm
	sort.Slice(byNorm, func(i, j int) bool { return norm(byNorm[i]) < norm(byNorm[j]) })
	sort.Slice(native, func(i, j int) bool { return native[i] < native[j] })
	for i := range native {
		if byNorm[i] != native[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}

	i64s := make([]int64, len(u64s))
	for i, v := range u64s {
		i64s[i] = int64(v)
	}
	byNormI := append([]int64(nil), i64s...)
	nativeI := append([]int64(nil), i64s...)
	normI := I64Codec{}.Norm
	sort.Slice(byNormI, func(i, j int) bool { return normI(byNormI[i]) < normI(byNormI[j]) })
	sort.Slice(nativeI, func(i, j int) bool { return nativeI[i] < nativeI[j] })
	for i := range nativeI {
		if byNormI[i] != nativeI[i] {
			t.Fatalf("int64 order diverges at %d", i)
		}
	}
}
