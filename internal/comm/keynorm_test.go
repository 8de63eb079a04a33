package comm

import (
	"math"
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

// TestF64NormTotalOrder pins the IEEE-754 total order the radix path
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

func TestNormForKnownTypes(t *testing.T) {
	if norm, ok := NormFor[uint64](); !ok || norm(7) != 7 {
		t.Fatal("NormFor[uint64] wrong")
	}
	if norm, ok := NormFor[uint32](); !ok || norm(7) != 7 {
		t.Fatal("NormFor[uint32] wrong")
	}
	if norm, ok := NormFor[int64](); !ok || norm(-1) >= norm(0) {
		t.Fatal("NormFor[int64] wrong")
	}
	if norm, ok := NormFor[float64](); !ok || norm(-1.5) >= norm(1.5) {
		t.Fatal("NormFor[float64] wrong")
	}
	if _, ok := NormFor[string](); ok {
		t.Fatal("NormFor[string] must report no norm")
	}
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
