package lsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pgxsort/internal/dist"
)

func lessU64(a, b uint64) bool { return a < b }

// checkSortedPermutation verifies out is sorted and is a permutation of in.
func checkSortedPermutation(t *testing.T, in, out []uint64) {
	t.Helper()
	if len(in) != len(out) {
		t.Fatalf("length changed: %d -> %d", len(in), len(out))
	}
	if !IsSorted(out, lessU64) {
		t.Fatal("output not sorted")
	}
	counts := make(map[uint64]int, len(in))
	for _, v := range in {
		counts[v]++
	}
	for _, v := range out {
		counts[v]--
		if counts[v] < 0 {
			t.Fatalf("output contains %d more often than input", v)
		}
	}
}

func testInputs() map[string][]uint64 {
	inputs := map[string][]uint64{
		"empty":     {},
		"single":    {42},
		"pair":      {2, 1},
		"allEqual":  make([]uint64, 1000),
		"organPipe": {},
	}
	for i := range inputs["allEqual"] {
		inputs["allEqual"][i] = 7
	}
	var organ []uint64
	for i := 0; i < 500; i++ {
		organ = append(organ, uint64(i))
	}
	for i := 500; i > 0; i-- {
		organ = append(organ, uint64(i))
	}
	inputs["organPipe"] = organ
	for _, k := range []dist.Kind{dist.Uniform, dist.Normal, dist.RightSkewed,
		dist.Exponential, dist.Sorted, dist.ReverseSorted, dist.FewDistinct} {
		inputs[k.String()] = dist.Gen{Kind: k, Seed: 77}.Keys(5000)
	}
	return inputs
}

func TestTimSort(t *testing.T) {
	for name, in := range testInputs() {
		in := in
		t.Run(name, func(t *testing.T) {
			got := append([]uint64(nil), in...)
			TimSort(got, lessU64)
			checkSortedPermutation(t, in, got)
		})
	}
}

// TimSort must be stable: equal keys keep their input order.
func TestTimSortStability(t *testing.T) {
	type pair struct {
		key uint64
		seq int
	}
	r := rand.New(rand.NewSource(42))
	in := make([]pair, 20000)
	for i := range in {
		in[i] = pair{key: uint64(r.Intn(50)), seq: i}
	}
	got := append([]pair(nil), in...)
	TimSort(got, func(a, b pair) bool { return a.key < b.key })

	want := append([]pair(nil), in...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stability violated at %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestTimSortMatchesStdlibOnManyShapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(3000)
		in := make([]uint64, n)
		switch trial % 5 {
		case 0: // random
			for i := range in {
				in[i] = uint64(r.Intn(1000))
			}
		case 1: // sorted with noise
			for i := range in {
				in[i] = uint64(i)
			}
			for k := 0; k < n/20; k++ {
				i, j := r.Intn(max(n, 1)), r.Intn(max(n, 1))
				if n > 0 {
					in[i], in[j] = in[j], in[i]
				}
			}
		case 2: // descending
			for i := range in {
				in[i] = uint64(n - i)
			}
		case 3: // runs of equal values
			for i := range in {
				in[i] = uint64(i / 50)
			}
		case 4: // saw-tooth
			for i := range in {
				in[i] = uint64(i % 17)
			}
		}
		got := append([]uint64(nil), in...)
		TimSort(got, lessU64)
		want := append([]uint64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestMergeInto(t *testing.T) {
	a := []uint64{1, 3, 5, 7}
	b := []uint64{2, 3, 6}
	dst := make([]uint64, 7)
	mergeInto(dst, a, b, lessU64)
	want := []uint64{1, 2, 3, 3, 5, 6, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mergeInto = %v, want %v", dst, want)
		}
	}
}

func TestMergeAdjacentRuns(t *testing.T) {
	for _, runs := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31} {
		for _, parallel := range []bool{false, true} {
			const per = 257
			data := make([]uint64, 0, runs*per)
			bounds := []int{0}
			r := rand.New(rand.NewSource(int64(runs)))
			for i := 0; i < runs; i++ {
				run := make([]uint64, per)
				for j := range run {
					run[j] = uint64(r.Intn(10000))
				}
				sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
				data = append(data, run...)
				bounds = append(bounds, len(data))
			}
			in := append([]uint64(nil), data...)
			scratch := make([]uint64, len(data))
			out := MergeAdjacentRuns(data, scratch, bounds, lessU64, parallel)
			checkSortedPermutation(t, in, out)
		}
	}
}

func TestMergeAdjacentRunsUnequalSizes(t *testing.T) {
	// Runs of wildly different sizes, including empty runs.
	sizes := []int{0, 1, 100, 0, 3, 999, 2, 0}
	data := []uint64{}
	bounds := []int{0}
	r := rand.New(rand.NewSource(3))
	for _, sz := range sizes {
		run := make([]uint64, sz)
		for j := range run {
			run[j] = uint64(r.Intn(500))
		}
		sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
		data = append(data, run...)
		bounds = append(bounds, len(data))
	}
	in := append([]uint64(nil), data...)
	out := MergeAdjacentRuns(data, make([]uint64, len(data)), bounds, lessU64, true)
	checkSortedPermutation(t, in, out)
}

func TestMergeRuns(t *testing.T) {
	runs := [][]uint64{
		{5, 10, 15},
		{1, 2, 3},
		{},
		{7},
		{0, 20},
	}
	var all []uint64
	for _, r := range runs {
		all = append(all, r...)
	}
	out := MergeRuns(runs, lessU64, true)
	checkSortedPermutation(t, all, out)
	if MergeRuns[uint64](nil, lessU64, false) != nil {
		t.Error("merging no runs should return nil")
	}
}

// The balanced handler's defining property (Figure 2): in every round the
// two operands of each merge differ by at most the size of one original
// chunk, i.e. merges stay balanced.
func TestRoundSizesBalanced(t *testing.T) {
	n := 8 * 1000
	bounds := make([]int, 9)
	for i := range bounds {
		bounds[i] = i * n / 8
	}
	rounds := RoundSizes(bounds)
	if len(rounds) != 3 {
		t.Fatalf("8 runs need 3 rounds, got %d", len(rounds))
	}
	wantMerges := []int{4, 2, 1}
	for r, merges := range rounds {
		if len(merges) != wantMerges[r] {
			t.Errorf("round %d: %d merges, want %d", r, len(merges), wantMerges[r])
		}
		for _, m := range merges {
			if m[0] != m[1] {
				t.Errorf("round %d: unbalanced merge %v", r, m)
			}
		}
	}
}

func TestKWayMerge(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3, 4, 5, 8, 17} {
		r := rand.New(rand.NewSource(int64(k)))
		runs := make([][]uint64, k)
		var all []uint64
		for i := range runs {
			sz := r.Intn(200)
			run := make([]uint64, sz)
			for j := range run {
				run[j] = uint64(r.Intn(1000))
			}
			sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
			runs[i] = run
			all = append(all, run...)
		}
		out := KWayMerge(runs, lessU64)
		checkSortedPermutation(t, all, out)
	}
}

func TestKWayMergeStability(t *testing.T) {
	type pair struct {
		key uint64
		run int
	}
	runs := [][]pair{
		{{1, 0}, {5, 0}, {5, 0}},
		{{1, 1}, {5, 1}},
		{{1, 2}, {2, 2}, {5, 2}},
	}
	out := KWayMerge(runs, func(a, b pair) bool { return a.key < b.key })
	// Equal keys must appear ordered by run index.
	for i := 1; i < len(out); i++ {
		if out[i].key == out[i-1].key && out[i].run < out[i-1].run {
			t.Fatalf("stability violated at %d: %+v after %+v", i, out[i], out[i-1])
		}
	}
}

func TestKWayMergeMatchesBalancedMerge(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k := 1 + r.Intn(9)
		runs := make([][]uint64, k)
		for i := range runs {
			run := make([]uint64, r.Intn(300))
			for j := range run {
				run[j] = uint64(r.Intn(100))
			}
			sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
			runs[i] = run
		}
		a := KWayMerge(runs, lessU64)
		b := MergeRuns(runs, lessU64, false)
		if len(a) != len(b) {
			t.Fatalf("length mismatch %d != %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: outputs differ at %d", trial, i)
			}
		}
	}
}

func TestLowerUpperBound(t *testing.T) {
	s := []uint64{1, 3, 3, 3, 5, 9}
	lessEK := func(e uint64, k uint64) bool { return e < k }
	greaterEK := func(e uint64, k uint64) bool { return e > k }
	cases := []struct {
		key    uint64
		lo, hi int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {4, 4, 4}, {5, 4, 5}, {9, 5, 6}, {10, 6, 6},
	}
	for _, c := range cases {
		if got := LowerBound(s, c.key, lessEK); got != c.lo {
			t.Errorf("LowerBound(%d) = %d, want %d", c.key, got, c.lo)
		}
		if got := UpperBound(s, c.key, greaterEK); got != c.hi {
			t.Errorf("UpperBound(%d) = %d, want %d", c.key, got, c.hi)
		}
	}
}

func TestMinRunLength(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{31, 31}, {32, 16}, {33, 17}, {64, 16}, {65, 17},
		{1 << 20, 16}, {1<<20 + 1, 17},
	} {
		if got := minRunLength(c.n); got != c.want {
			t.Errorf("minRunLength(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCountRunAndMakeAscending(t *testing.T) {
	a := []uint64{1, 2, 3, 2, 1}
	if got := countRunAndMakeAscending(a, lessU64); got != 3 {
		t.Errorf("ascending run = %d, want 3", got)
	}
	b := []uint64{5, 4, 3, 10}
	if got := countRunAndMakeAscending(b, lessU64); got != 3 {
		t.Errorf("descending run = %d, want 3", got)
	}
	if b[0] != 3 || b[1] != 4 || b[2] != 5 {
		t.Errorf("descending run not reversed: %v", b)
	}
}

// Property: TimSort output equals stdlib sort for arbitrary inputs.
func TestPropertyTimSortMatchesStdlib(t *testing.T) {
	f := func(in []uint64) bool {
		got := append([]uint64(nil), in...)
		TimSort(got, lessU64)
		want := append([]uint64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging sorted halves with the balanced handler equals sorting.
func TestPropertyMergePreservesMultiset(t *testing.T) {
	f := func(a, b []uint64) bool {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		out := MergeRuns([][]uint64{a, b}, lessU64, false)
		if !IsSorted(out, lessU64) {
			return false
		}
		return len(out) == len(a)+len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]uint64{}, lessU64) || !IsSorted([]uint64{1}, lessU64) ||
		!IsSorted([]uint64{1, 1, 2}, lessU64) {
		t.Error("IsSorted false negative")
	}
	if IsSorted([]uint64{2, 1}, lessU64) {
		t.Error("IsSorted false positive")
	}
}

func TestTopKSelection(t *testing.T) {
	in := []uint64{5, 1, 9, 3, 9, 2, 8}
	top := TopK(in, 3, lessU64)
	want := []uint64{9, 9, 8}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	if TopK(in, 0, lessU64) != nil {
		t.Error("TopK(0) should be nil")
	}
	if TopK([]uint64{}, 3, lessU64) != nil {
		t.Error("TopK of empty should be nil")
	}
	if got := TopK(in, 100, lessU64); len(got) != len(in) {
		t.Errorf("TopK(k>n) = %d elements", len(got))
	}
	bottom := BottomK(in, 3, lessU64)
	want = []uint64{1, 2, 3}
	for i := range want {
		if bottom[i] != want[i] {
			t.Fatalf("BottomK = %v, want %v", bottom, want)
		}
	}
}

func TestTopKDoesNotMutateInput(t *testing.T) {
	in := []uint64{5, 1, 9, 3}
	orig := append([]uint64(nil), in...)
	TopK(in, 2, lessU64)
	for i := range orig {
		if in[i] != orig[i] {
			t.Fatalf("TopK mutated input: %v", in)
		}
	}
}

// Property: TopK equals sorting then truncating, for any input and k.
func TestPropertyTopKMatchesSort(t *testing.T) {
	f := func(in []uint64, kRaw uint8) bool {
		k := int(kRaw % 64)
		got := TopK(in, k, lessU64)
		want := append([]uint64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		if k > len(want) {
			k = len(want)
		}
		want = want[:k]
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
