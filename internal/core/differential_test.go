package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"sort"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// dropNorm puts a fresh engine on the comparison arm of steps 1 and 6
// whatever its key type: with the norm cleared before the first sort,
// comparators resolves exactly as it does for a key that has none. The
// engine chooses its arm from the key type alone, so this is how a test
// runs the comparison arm over uint64 keys.
func dropNorm[K cmp.Ordered](e *Engine[K]) { e.norm, e.normInexact = nil, false }

// sortWith builds an engine with opts, sorts parts and returns the
// result: on the arm the key type selects, or — when comparison is set —
// on the comparison arm (dropNorm).
func sortWith[K cmp.Ordered](t *testing.T, codec comm.Codec[K], opts Options, parts [][]K, comparison bool) *Result[K] {
	t.Helper()
	e, err := NewEngine[K](opts, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	if comparison {
		dropNorm(e)
	}
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return res
}

// requireEntriesIdentical asserts two results are byte-identical entry for
// entry: same partition sizes, same origins, and byte-equal keys under the
// codec (plain == would treat NaN keys as unequal to themselves).
func requireEntriesIdentical[K cmp.Ordered](t *testing.T, codec comm.Codec[K], got, want *Result[K], label string) {
	t.Helper()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d parts vs %d", label, len(got.Parts), len(want.Parts))
	}
	for pi := range got.Parts {
		if len(got.Parts[pi]) != len(want.Parts[pi]) {
			t.Fatalf("%s: part %d has %d entries, want %d",
				label, pi, len(got.Parts[pi]), len(want.Parts[pi]))
		}
		for i := range got.Parts[pi] {
			g, w := got.Parts[pi][i], want.Parts[pi][i]
			if g.Proc != w.Proc || g.Index != w.Index ||
				!bytes.Equal(keyBytes(codec, g.Key), keyBytes(codec, w.Key)) {
				t.Fatalf("%s: part %d entry %d: %+v != %+v", label, pi, i, g, w)
			}
		}
	}
}

// keyBytes is a key's wire image: the identity the differentials compare
// keys by, since == cannot match a NaN to itself.
func keyBytes[K any](codec comm.Codec[K], k K) []byte {
	if vc, ok := codec.(comm.VarCodec[K]); ok {
		return vc.AppendKey(nil, k)
	}
	b := make([]byte, codec.KeySize())
	codec.PutKey(b, k)
	return b
}

// totalOrder is the order the test-side reference sorts under. It is
// written here, not borrowed from the engine's comparators: `<` on every
// type but float64, whose engine order is the IEEE-754 total order (-NaN
// < -Inf < … < -0 < +0 < … < +Inf < +NaN) on the radix path.
func totalOrder[K cmp.Ordered]() func(a, b K) bool {
	var zero K
	if _, ok := any(zero).(float64); !ok {
		return func(a, b K) bool { return a < b }
	}
	image := func(k K) uint64 {
		u := math.Float64bits(any(k).(float64))
		if u>>63 != 0 {
			return ^u
		}
		return u | 1<<63
	}
	return func(a, b K) bool { return image(a) < image(b) }
}

// requireMatchesReference holds one engine result to a flat reference
// built here from the input alone: every input entry, stable-sorted under
// the total order.
//
//   - The flattened result carries exactly the reference's key sequence.
//   - Provenance is a bijection: every (proc, index) occurs once and names
//     an input slot holding that very key.
//   - Equal keys within a part sit in origin-processor order — and, when
//     the local sort is stable (the exact-norm radix path), in origin-index
//     order within a processor. That is the unique order a stable merge of the
//     sources' runs taken in source order can produce. (Across parts the
//     investigator deals one value's duplicates out to several
//     processors, so only the key sequence is globally pinned.)
func requireMatchesReference[K cmp.Ordered](t *testing.T, codec comm.Codec[K], res *Result[K], parts [][]K, stable bool, label string) {
	t.Helper()
	less := totalOrder[K]()
	var ref []K
	for _, p := range parts {
		ref = append(ref, p...)
	}
	sort.SliceStable(ref, func(i, j int) bool { return less(ref[i], ref[j]) })

	seen := make([][]bool, len(parts))
	for i, p := range parts {
		seen[i] = make([]bool, len(p))
	}
	at := 0
	for pi, part := range res.Parts {
		for i, e := range part {
			if at >= len(ref) {
				t.Fatalf("%s: result has more than the %d input entries", label, len(ref))
			}
			if !bytes.Equal(keyBytes(codec, e.Key), keyBytes(codec, ref[at])) {
				t.Fatalf("%s: part %d entry %d (flat %d): key %v, reference %v", label, pi, i, at, e.Key, ref[at])
			}
			at++
			if int(e.Proc) >= len(parts) || int(e.Index) >= len(parts[e.Proc]) || seen[e.Proc][e.Index] {
				t.Fatalf("%s: part %d entry %d: origin (%d,%d) out of range or repeated", label, pi, i, e.Proc, e.Index)
			}
			seen[e.Proc][e.Index] = true
			if !bytes.Equal(keyBytes(codec, e.Key), keyBytes(codec, parts[e.Proc][e.Index])) {
				t.Fatalf("%s: part %d entry %d: key %v is not the key at its origin (%d,%d)", label, pi, i, e.Key, e.Proc, e.Index)
			}
			if i == 0 {
				continue
			}
			prev := part[i-1]
			if less(prev.Key, e.Key) {
				continue
			}
			if prev.Proc > e.Proc || (stable && prev.Proc == e.Proc && prev.Index >= e.Index) {
				t.Fatalf("%s: part %d entries %d,%d tie out of origin order: %+v then %+v", label, pi, i-1, i, prev, e)
			}
		}
	}
	if at != len(ref) {
		t.Fatalf("%s: result has %d entries, reference %d", label, at, len(ref))
	}
}

// diffEngine is the differential core. The one engine path runs twice —
// resident (MemoryBudget -1, immune to the PGXSORT_MEM_BUDGET lane) and
// forced out of core by a tenth-of-the-data budget — and both results
// must match the test-side reference and each other entry for entry: the
// balanced merge and the spilled cursor merge are both stable over runs
// in source order. comparison runs both on the comparison arm (dropNorm).
func diffEngine[K cmp.Ordered](t *testing.T, codec comm.Codec[K], parts [][]K, opts Options, label string, comparison bool) {
	t.Helper()
	opts.Procs = len(parts)
	resident := opts
	resident.MemoryBudget = -1
	budgeted := opts
	// Budget against the fixed-width entry footprint, not unsafe.Sizeof's
	// 16-byte string header, so string sorts spill too.
	budgeted.MemoryBudget = spillBudget[uint64](len(parts[0]))
	budgeted.SpillDir = t.TempDir()

	// Stable local sort: the radix path under an exact norm. Quicksort is
	// not, and an inexact norm (strings) finishes with a comparison fixup
	// over chunk merges that does not keep index order.
	ix, inexact := any(codec).(comm.InexactNormalizer)
	stable := !comparison && !(inexact && ix.NormInexact())
	want := sortWith(t, codec, resident, parts, comparison)
	requireMatchesReference(t, codec, want, parts, stable, label+"/resident")
	if comparison && want.Report.LocalSortPath != "comparison" {
		t.Fatalf("%s: ran the %s arm, want comparison", label, want.Report.LocalSortPath)
	}
	if want.Report.MergePath != "balanced" || want.Report.SpillBytes != 0 || want.Report.SpillReads != 0 {
		t.Fatalf("%s: resident run reports MergePath %q, spilled %d/%d bytes",
			label, want.Report.MergePath, want.Report.SpillBytes, want.Report.SpillReads)
	}
	got := sortWith(t, codec, budgeted, parts, comparison)
	requireMatchesReference(t, codec, got, parts, stable, label+"/budgeted")
	requireEntriesIdentical(t, codec, got, want, label+"/budgeted-vs-resident")
	// A tenth of parts[0]'s footprint is below any non-empty node's
	// assembly, so the budgeted run spills unless there is nothing to sort.
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	wantPath := "balanced"
	if n > 0 {
		wantPath = "balanced+spill"
	}
	if got.Report.MergePath != wantPath || (got.Report.SpillReads > 0) != (n > 0) {
		t.Fatalf("%s: budgeted run of %d keys reports MergePath %q, SpillBytes=%d SpillReads=%d, want %q",
			label, n, got.Report.MergePath, got.Report.SpillBytes, got.Report.SpillReads, wantPath)
	}
}

// TestDifferentialAllKinds: every generator kind, including the
// adversarial sorted/constant/few-distinct shapes whose duplicate ties
// stress the origin tie-break.
func TestDifferentialAllKinds(t *testing.T) {
	for _, kind := range dist.AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			parts := mkParts(kind, 5, 4000, 17)
			diffEngine(t, comm.U64Codec{}, parts, Options{WorkersPerProc: 2}, kind.String(), false)
		})
	}
}

// TestDifferentialKeyTypes: procs × key type × resident/budgeted. The
// int64 sign flip, the float64 IEEE-754 total order (NaNs, infinities and
// signed zeros included), the narrow uint32 codec and variable-width
// strings behind an inexact prefix norm all hold to the reference, on a
// duplicate-heavy draw so ties occur on every type. uint64 also runs the
// comparison arm, whose local sort is not stable.
func TestDifferentialKeyTypes(t *testing.T) {
	const per = 1500
	for _, procs := range []int{1, 2, 3, 4, 8} {
		base := mkParts(dist.RightSkewed, procs, per, 23)
		name := func(kt string) string { return fmt.Sprintf("%s/p=%d", kt, procs) }
		t.Run(name("uint64"), func(t *testing.T) {
			diffEngine(t, comm.U64Codec{}, base, Options{WorkersPerProc: 2}, "uint64", false)
		})
		t.Run(name("uint64-comparison"), func(t *testing.T) {
			diffEngine(t, comm.U64Codec{}, base, Options{WorkersPerProc: 2}, "uint64-comparison", true)
		})
		t.Run(name("int64"), func(t *testing.T) {
			parts := make([][]int64, procs)
			for i, p := range base {
				parts[i] = make([]int64, len(p))
				for j, k := range p {
					parts[i][j] = int64(k) - 20 // mix signs
				}
			}
			diffEngine(t, comm.I64Codec{}, parts, Options{WorkersPerProc: 2}, "int64", false)
		})
		t.Run(name("float64"), func(t *testing.T) {
			specials := []float64{math.Inf(1), math.Inf(-1), 0.0,
				math.Copysign(0, -1), math.MaxFloat64, -math.SmallestNonzeroFloat64,
				math.NaN(), -math.NaN()}
			parts := make([][]float64, procs)
			for i, p := range base {
				parts[i] = make([]float64, len(p))
				for j, k := range p {
					switch {
					case j < 2*len(specials):
						parts[i][j] = specials[(i+j)%len(specials)]
					case j%2 == 0:
						// Raw bit reinterpretation: wild exponents,
						// negatives and NaN payload patterns.
						parts[i][j] = math.Float64frombits(k * 0x9e3779b97f4a7c15)
					default:
						parts[i][j] = float64(k) - 20
					}
				}
			}
			diffEngine(t, comm.F64Codec{}, parts, Options{WorkersPerProc: 2}, "float64", false)
		})
		t.Run(name("uint32"), func(t *testing.T) {
			parts := make([][]uint32, procs)
			for i, p := range base {
				parts[i] = make([]uint32, len(p))
				for j, k := range p {
					parts[i][j] = uint32(k)
				}
			}
			diffEngine(t, comm.U32Codec{}, parts, Options{WorkersPerProc: 2}, "uint32", false)
		})
		t.Run(name("string"), func(t *testing.T) {
			parts := make([][]string, procs)
			for i := range parts {
				parts[i] = dist.Gen{Kind: dist.RightSkewed, Seed: 23 + uint64(i)*7919}.Strings(per, "shared-prefix-")
			}
			diffEngine(t, comm.StringCodec{}, parts, Options{WorkersPerProc: 2}, "string", false)
		})
	}
}

// TestDifferentialDegenerate: empty datasets, single processors, fewer
// keys than processors.
func TestDifferentialDegenerate(t *testing.T) {
	cases := map[string][][]uint64{
		"all-empty":    {{}, {}, {}},
		"single-proc":  {{5, 3, 9, 1}},
		"sparse":       {{7}, {}, {2, 2, 2}, {}},
		"one-key-each": {{4}, {1}, {3}, {2}},
	}
	for name, parts := range cases {
		t.Run(name, func(t *testing.T) {
			diffEngine(t, comm.U64Codec{}, parts, Options{WorkersPerProc: 1}, name, false)
		})
	}
}

// TestDifferentialSurvivesResets is the chaos half of the suite: the
// sort runs over the TCP transport with connections reset on a schedule
// throughout the exchange — resident and budgeted — and must still match
// the reference and a fault-free in-process run entry for entry.
func TestDifferentialSurvivesResets(t *testing.T) {
	const procs, per = 4, 6000
	for _, kind := range []dist.Kind{dist.Uniform, dist.RightSkewed} {
		parts := mkParts(kind, procs, per, 4321)
		// BufferBytes must match across engines: it drives the sample
		// count, so splitters (and thus partitions) agree.
		ref := sortWith(t, comm.U64Codec{}, Options{
			Procs: procs, WorkersPerProc: 2, BufferBytes: 4096, MemoryBudget: -1,
		}, parts, false)
		for _, budget := range []int64{-1, spillBudget[uint64](per)} {
			t.Run(fmt.Sprintf("%s/budget=%d", kind, budget), func(t *testing.T) {
				e, err := NewEngine[uint64](Options{
					Procs:          procs,
					WorkersPerProc: 2,
					BufferBytes:    4096,
					Transport:      transport.KindTCP,
					TCP:            chaosTCP(),
					Faults:         &transport.FaultPlan{ResetEvery: 3},
					MemoryBudget:   budget,
					SpillDir:       t.TempDir(),
				}, comm.U64Codec{})
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				defer e.Close()
				got, err := e.Sort(parts)
				if err != nil {
					t.Fatalf("chaos sort: %v", err)
				}
				requireMatchesReference(t, comm.U64Codec{}, got, parts, true, kind.String())
				requireEntriesIdentical(t, comm.U64Codec{}, got, ref, kind.String())
				if got.Report.Reconnects == 0 {
					t.Error("chaos sort reported no reconnects; the faults did not bite")
				}
				if spilled := got.Report.SpillBytes > 0; spilled != (budget > 0) {
					t.Errorf("SpillBytes = %d under budget %d", got.Report.SpillBytes, budget)
				}
			})
		}
	}
}

// FuzzEngineDifferential fuzzes generator kind, seed, shape and processor
// count against the reference, resident and budgeted.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(4), uint16(800))
	f.Add(uint8(2), uint64(99), uint8(7), uint16(333))
	f.Add(uint8(7), uint64(5), uint8(1), uint16(50))
	f.Add(uint8(5), uint64(12345), uint8(3), uint16(0))
	f.Fuzz(func(t *testing.T, kindB uint8, seed uint64, procsB uint8, perB uint16) {
		kind := dist.AllKinds[int(kindB)%len(dist.AllKinds)]
		procs := 1 + int(procsB%8)
		per := int(perB % 2048)
		parts := mkParts(kind, procs, per, seed)
		diffEngine(t, comm.U64Codec{}, parts, Options{WorkersPerProc: 2}, kind.String(), false)
	})
}

// TestTotalOrderFloat64 pins the reference's own float order, so it
// cannot drift along with the engine's norm.
func TestTotalOrderFloat64(t *testing.T) {
	less := totalOrder[float64]()
	vals := []float64{-math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), math.NaN()}
	for i := 1; i < len(vals); i++ {
		if !less(vals[i-1], vals[i]) || less(vals[i], vals[i-1]) {
			t.Fatalf("totalOrder misorders %v and %v", vals[i-1], vals[i])
		}
	}
}
