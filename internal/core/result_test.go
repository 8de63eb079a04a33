package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// checkSearch holds Search and Count on res, and on a Result built by
// hand over the same parts (which must fall back to comm.NormFor's
// order), to a linear scan under the test-side total order: Count is the
// number of equal keys, Search's global rank the first position not below
// the key, found whether the key is there, and proc and local the
// position's part and offset.
func checkSearch[K cmp.Ordered](t *testing.T, label string, res *Result[K], queries []K) {
	t.Helper()
	less := totalOrder[K]()
	var flat []K
	for _, part := range res.Parts {
		for _, e := range part {
			flat = append(flat, e.Key)
		}
	}
	for _, r := range []*Result[K]{res, {Parts: res.Parts}} {
		for _, q := range queries {
			first, count := len(flat), 0
			for i, k := range flat {
				if !less(k, q) && i < first {
					first = i
				}
				if !less(k, q) && !less(q, k) {
					count++
				}
			}
			if got := r.Count(q); got != count {
				t.Fatalf("%s: Count(%v) = %d, a linear count gives %d", label, q, got, count)
			}
			proc, local, global, found := r.Search(q)
			if global != first || found != (count > 0) {
				t.Fatalf("%s: Search(%v) = rank %d found %v, a linear scan gives %d found %v", label, q, global, found, first, count > 0)
			}
			if first < len(flat) {
				if e, err := r.At(global); err != nil || proc >= len(r.Parts) || local >= len(r.Parts[proc]) ||
					r.Parts[proc][local].Proc != e.Proc || r.Parts[proc][local].Index != e.Index {
					t.Fatalf("%s: Search(%v) names part %d offset %d, which is not rank %d", label, q, proc, local, global)
				}
			}
		}
	}
}

// straddles reports whether some key occurs in two parts.
func straddles[K cmp.Ordered](res *Result[K], key K) bool {
	less := totalOrder[K]()
	in := 0
	for _, part := range res.Parts {
		for _, e := range part {
			if !less(e.Key, key) && !less(key, e.Key) {
				in++
				break
			}
		}
	}
	return in > 1
}

// TestResultSearchTotalOrder: Search and Count find float keys where the
// sort put them, in the IEEE-754 total order: -0 is not +0, every NaN has
// its place (NaNs of both signs and several payloads, runs of one NaN
// straddling a part boundary), and the infinities bound the rest — at
// both float widths. Unsigned and string keys answer as they always did.
func TestResultSearchTotalOrder(t *testing.T) {
	negNaN, otherNaN := math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000002)
	sort := func(t *testing.T, parts [][]float64) *Result[float64] {
		e, err := NewEngine[float64](Options{Procs: len(parts), WorkersPerProc: 2}, comm.F64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero := math.Copysign(0, -1)
	queries := []float64{math.NaN(), negNaN, otherNaN, math.Float64frombits(0x7ff8000000000003),
		zero, 0, math.Inf(1), math.Inf(-1), -2, 1, 2.5, 3, 1e300, -1e300}

	// Two nodes: {NaN, 1, -0, 3} and {+0, NaN, -2, +Inf} sort to
	// [-2 -0 +0 1 3 +Inf NaN NaN].
	repro := sort(t, [][]float64{{math.NaN(), 1, zero, 3}, {0, math.NaN(), -2, math.Inf(1)}})
	checkSearch(t, "float64/repro", repro, queries)

	// Four nodes, three keys in five one NaN: it is the upper splitters'
	// value, and exact-rank splitters deal its copies out to several parts.
	const p, per = 4, 600
	parts := make([][]float64, p)
	specials := []float64{negNaN, math.Inf(-1), zero, 0, math.Inf(1), otherNaN}
	for i := range parts {
		keys := dist.Gen{Kind: dist.Uniform, Seed: 83 + uint64(i), Domain: 64}.Keys(per)
		for j, k := range keys {
			switch {
			case j%5 < 3:
				parts[i] = append(parts[i], math.NaN())
			case j%7 == 0:
				parts[i] = append(parts[i], specials[j%len(specials)])
			default:
				parts[i] = append(parts[i], float64(k)-32)
			}
		}
	}
	res := sort(t, parts)
	if !straddles(res, math.NaN()) {
		t.Fatal("no NaN run straddles a part boundary")
	}
	checkSearch(t, "float64/straddling", res, append(queries, -32, 31, 0.5))

	parts32 := make([][]float32, p)
	for i, part := range parts {
		for _, k := range part {
			parts32[i] = append(parts32[i], float32(k))
		}
	}
	parts32[1][5] = math.Float32frombits(0xffc00001) // a negative NaN with a payload
	codec32 := fixedCodec[float32]{4,
		func(b []byte, k float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(k)) },
		func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) },
	}
	e32, err := NewEngine[float32](Options{Procs: p, WorkersPerProc: 2}, codec32)
	if err != nil {
		t.Fatal(err)
	}
	defer e32.Close()
	res32, err := e32.Sort(parts32)
	if err != nil {
		t.Fatal(err)
	}
	if !straddles(res32, float32(math.NaN())) {
		t.Fatal("no float32 NaN run straddles a part boundary")
	}
	var queries32 []float32
	for _, q := range append(queries, -32, 31) {
		queries32 = append(queries32, float32(q))
	}
	checkSearch(t, "float32", res32, append(queries32, math.Float32frombits(0xffc00001), math.Float32frombits(0x7fa00000)))

	for _, procs := range []int{1, 4} {
		keys := mkParts(dist.RightSkewed, procs, 500, 89)
		u := newTestEngine(t, Options{Procs: procs})
		ures, err := u.Sort(keys)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, fmt.Sprintf("uint64/p=%d", procs), ures, []uint64{0, 1, 5, 63, 64, 1 << 40})

		strs := make([][]string, procs)
		for i, part := range keys {
			for _, k := range part {
				strs[i] = append(strs[i], dist.StringKey("shared-prefix-", k, 0))
			}
		}
		s, err := NewEngine[string](Options{Procs: procs}, comm.StringCodec{})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := s.Sort(strs)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, fmt.Sprintf("string/p=%d", procs), sres, []string{"", "shared-prefix-", strs[0][0], strs[procs-1][7], "zzz"})
	}
}
