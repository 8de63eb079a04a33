package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// sortWith builds an engine with opts, sorts parts and returns the
// verified result.
func sortWith[K cmp.Ordered](t *testing.T, codec comm.Codec[K], opts Options, parts [][]K) *Result[K] {
	t.Helper()
	e, err := NewEngine[K](opts, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
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
// kind but the floats, whose engine order is the IEEE-754 total order
// (-NaN < -Inf < … < -0 < +0 < … < +Inf < +NaN) at their own width.
func totalOrder[K cmp.Ordered]() func(a, b K) bool {
	image := func(u, sign uint64) uint64 {
		if u&sign != 0 {
			return ^u & (sign<<1 - 1)
		}
		return u | sign
	}
	var bits func(k K) uint64
	var zero K
	switch any(zero).(type) {
	case float64:
		bits = func(k K) uint64 { return image(math.Float64bits(any(k).(float64)), 1<<63) }
	case float32:
		bits = func(k K) uint64 { return image(uint64(math.Float32bits(any(k).(float32))), 1<<31) }
	default:
		return func(a, b K) bool { return a < b }
	}
	return func(a, b K) bool { return bits(a) < bits(b) }
}

// requireMatchesReference holds one engine result to a flat reference
// built here from the input alone: every input entry, stable-sorted under
// the total order, processor by processor.
//
// The flattened result must be the reference entry for entry: the same
// key sequence, and equal keys in the same (proc, index) order — so
// provenance is a bijection onto input slots holding those very keys.
// Splitters name exact ranks in that order and step 1 keeps equal keys in
// index order under every norm, so the whole sort is stable.
func requireMatchesReference[K cmp.Ordered](t *testing.T, codec comm.Codec[K], res *Result[K], parts [][]K, label string) {
	t.Helper()
	less := totalOrder[K]()
	type origin struct{ proc, index int }
	var ref []origin
	for i, p := range parts {
		for j := range p {
			ref = append(ref, origin{i, j})
		}
	}
	sort.SliceStable(ref, func(i, j int) bool {
		return less(parts[ref[i].proc][ref[i].index], parts[ref[j].proc][ref[j].index])
	})

	at := 0
	for pi, part := range res.Parts {
		for i, e := range part {
			if at >= len(ref) {
				t.Fatalf("%s: result has more than the %d input entries", label, len(ref))
			}
			want := parts[ref[at].proc][ref[at].index]
			if !bytes.Equal(keyBytes(codec, e.Key), keyBytes(codec, want)) {
				t.Fatalf("%s: part %d entry %d (flat %d): key %v, reference %v", label, pi, i, at, e.Key, want)
			}
			if int(e.Proc) != ref[at].proc || int(e.Index) != ref[at].index {
				t.Fatalf("%s: part %d entry %d (flat %d): origin (%d,%d), reference (%d,%d): equal keys out of input order",
					label, pi, i, at, e.Proc, e.Index, ref[at].proc, ref[at].index)
			}
			at++
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
// in source order.
func diffEngine[K cmp.Ordered](t *testing.T, codec comm.Codec[K], parts [][]K, opts Options, label string) {
	t.Helper()
	opts.Procs = len(parts)
	resident := opts
	resident.MemoryBudget = -1
	budgeted := opts
	// Budget against the fixed-width entry footprint, not unsafe.Sizeof's
	// 16-byte string header, so string sorts spill too.
	budgeted.MemoryBudget = spillBudget[uint64](len(parts[0]))
	budgeted.SpillDir = t.TempDir()

	want := sortWith(t, codec, resident, parts)
	requireMatchesReference(t, codec, want, parts, label+"/resident")
	if want.Report.MergePath != "balanced" || want.Report.SpillBytes != 0 || want.Report.SpillReads != 0 {
		t.Fatalf("%s: resident run reports MergePath %q, spilled %d/%d bytes",
			label, want.Report.MergePath, want.Report.SpillBytes, want.Report.SpillReads)
	}
	got := sortWith(t, codec, budgeted, parts)
	requireMatchesReference(t, codec, got, parts, label+"/budgeted")
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
			diffEngine(t, comm.U64Codec{}, parts, Options{WorkersPerProc: 2}, kind.String())
		})
	}
}

// keyKind is one key type of the differentials' draw: a function of a
// right-skewed uint64 base, so ties occur on every type.
type keyKind interface {
	name() string
	// diff runs diffEngine over the kind's draw.
	diff(t *testing.T, base [][]uint64)
	// selectK holds TopK, or with bottom BottomK, to Sort over the kind's
	// draw.
	selectK(t *testing.T, base [][]uint64, bottom bool)
}

// kindOf draws keys of type K: key gives the key at position j of part i
// from the base key k there.
type kindOf[K cmp.Ordered] struct {
	label string
	codec comm.Codec[K]
	key   func(i, j int, k uint64) K
}

func (kd kindOf[K]) name() string { return kd.label }

func (kd kindOf[K]) parts(base [][]uint64) [][]K {
	parts := make([][]K, len(base))
	for i, p := range base {
		parts[i] = make([]K, len(p))
		for j, k := range p {
			parts[i][j] = kd.key(i, j, k)
		}
	}
	return parts
}

func (kd kindOf[K]) diff(t *testing.T, base [][]uint64) {
	diffEngine(t, kd.codec, kd.parts(base), Options{WorkersPerProc: 2}, kd.label)
}

func (kd kindOf[K]) selectK(t *testing.T, base [][]uint64, bottom bool) {
	requireSelectKMatchesSort(t, kd.codec, kd.parts(base), bottom)
}

// fixedCodec is a fixed-width codec with no norm of its own, for the key
// kinds comm ships no codec for: the engine orders them by comm.NormFor.
type fixedCodec[K any] struct {
	size int
	put  func(b []byte, k K)
	get  func(b []byte) K
}

func (c fixedCodec[K]) KeySize() int         { return c.size }
func (c fixedCodec[K]) PutKey(b []byte, k K) { c.put(b, k) }
func (c fixedCodec[K]) Key(b []byte) K       { return c.get(b) }

// label is a named string type, and labelCodec comm.StringCodec's wire
// form for it — again without a norm of its own.
type label string

type labelCodec struct{}

func (labelCodec) KeySize() int         { return comm.StringCodec{}.KeySize() }
func (labelCodec) PutKey([]byte, label) { panic("variable-width codec") }
func (labelCodec) Key([]byte) label     { panic("variable-width codec") }
func (labelCodec) KeyBytes(k label) int { return comm.StringCodec{}.KeyBytes(string(k)) }
func (labelCodec) AppendKey(dst []byte, k label) []byte {
	return comm.StringCodec{}.AppendKey(dst, string(k))
}
func (labelCodec) ReadKey(b []byte) (label, []byte, error) {
	k, rest, err := comm.StringCodec{}.ReadKey(b)
	return label(k), rest, err
}

// floatDraw mixes the specials (NaNs of both signs, infinities, signed
// zeros, the extremes) with raw bit patterns — wild exponents, negatives
// and NaN payloads — and plain small values of both signs.
func floatDraw[F float32 | float64](specials []F, fromBits func(uint64) F) func(i, j int, k uint64) F {
	return func(i, j int, k uint64) F {
		switch {
		case j < 2*len(specials):
			return specials[(i+j)%len(specials)]
		case j%2 == 0:
			return fromBits(k * 0x9e3779b97f4a7c15)
		}
		return F(k) - 20
	}
}

// keyKinds: the int64 sign flip, the IEEE-754 total order at both float
// widths, the narrow uint32 codec, variable-width strings behind an
// inexact prefix norm — and the kinds comm.NormFor alone gives a norm:
// int, int32, float32 and a named string type.
var keyKinds = []keyKind{
	kindOf[uint64]{"uint64", comm.U64Codec{}, func(_, _ int, k uint64) uint64 { return k }},
	kindOf[int64]{"int64", comm.I64Codec{}, func(_, _ int, k uint64) int64 { return int64(k) - 20 }}, // mix signs
	kindOf[float64]{"float64", comm.F64Codec{}, floatDraw(
		[]float64{math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1), math.MaxFloat64,
			-math.SmallestNonzeroFloat64, math.NaN(), -math.NaN()},
		math.Float64frombits)},
	kindOf[uint32]{"uint32", comm.U32Codec{}, func(_, _ int, k uint64) uint32 { return uint32(k) }},
	kindOf[string]{"string", comm.StringCodec{}, func(_, _ int, k uint64) string {
		return dist.StringKey("shared-prefix-", k, 0)
	}},
	kindOf[int]{"int", fixedCodec[int]{8,
		func(b []byte, k int) { binary.LittleEndian.PutUint64(b, uint64(k)) },
		func(b []byte) int { return int(binary.LittleEndian.Uint64(b)) },
	}, func(_, _ int, k uint64) int { return int(k) - 20 }},
	kindOf[int32]{"int32", fixedCodec[int32]{4,
		func(b []byte, k int32) { binary.LittleEndian.PutUint32(b, uint32(k)) },
		func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) },
	}, func(_, _ int, k uint64) int32 { return int32(k) - 20 }},
	kindOf[float32]{"float32", fixedCodec[float32]{4,
		func(b []byte, k float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(k)) },
		func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) },
	}, floatDraw(
		[]float32{float32(math.Inf(1)), float32(math.Inf(-1)), 0.0, float32(math.Copysign(0, -1)),
			math.MaxFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000)},
		func(u uint64) float32 { return math.Float32frombits(uint32(u >> 32)) })},
	kindOf[label]{"named-string", labelCodec{}, func(_, j int, k uint64) label {
		if j%2 == 0 {
			return label(dist.StringKey("", k, 0)) // the prefix norm tells these apart
		}
		return label(dist.StringKey("shared-prefix-", k, 0))
	}},
}

// TestDifferentialKeyTypes: procs × key type × resident/budgeted, all
// held to the reference on a duplicate-heavy draw. The kinds with no codec
// norm must report the same MergePath and spill behaviour as the others:
// diffEngine asserts them on every case.
func TestDifferentialKeyTypes(t *testing.T) {
	const per = 1500
	for _, procs := range []int{1, 2, 3, 4, 8} {
		base := mkParts(dist.RightSkewed, procs, per, 23)
		for _, kind := range keyKinds {
			t.Run(fmt.Sprintf("%s/p=%d", kind.name(), procs), func(t *testing.T) { kind.diff(t, base) })
		}
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
			diffEngine(t, comm.U64Codec{}, parts, Options{WorkersPerProc: 1}, name)
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
		}, parts)
		for _, budget := range []int64{-1, spillBudget[uint64](per)} {
			t.Run(fmt.Sprintf("%s/budget=%d", kind, budget), func(t *testing.T) {
				e, err := NewEngine[uint64](Options{
					Procs:          procs,
					WorkersPerProc: 2,
					BufferBytes:    4096,
					Transport:      transport.KindTCP,
					TCP:            chaosTCP(),
					MemoryBudget:   budget,
					SpillDir:       t.TempDir(),
				}, comm.U64Codec{})
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				defer e.Close()
				// The 18 frames of sampling, splitters and range metadata
				// go first: the burst lands mid-exchange.
				const burst = 6
				armResets(t, 25, burst)
				got, err := e.Sort(parts)
				if err != nil {
					t.Fatalf("chaos sort: %v", err)
				}
				requireMatchesReference(t, comm.U64Codec{}, got, parts, kind.String())
				requireEntriesIdentical(t, comm.U64Codec{}, got, ref, kind.String())
				if got.Report.Reconnects == 0 {
					t.Error("chaos sort reported no reconnects; the faults did not bite")
				}
				if spilled := got.Report.SpillBytes > 0; spilled != (budget > 0) {
					t.Errorf("SpillBytes = %d under budget %d", got.Report.SpillBytes, budget)
				}
				requireResetsFired(t, burst)
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
		diffEngine(t, comm.U64Codec{}, parts, Options{WorkersPerProc: 2}, kind.String())
	})
}

// TestTotalOrderFloat64 pins the reference's own float order at both
// widths, so it cannot drift along with the engine's norm.
func TestTotalOrderFloat64(t *testing.T) {
	pinTotalOrder(t, []float64{-math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), math.NaN()})
	pinTotalOrder(t, []float32{math.Float32frombits(0xffc00000), float32(math.Inf(-1)), -1,
		float32(math.Copysign(0, -1)), 0, 1, float32(math.Inf(1)), math.Float32frombits(0x7fc00000)})
}

func pinTotalOrder[K cmp.Ordered](t *testing.T, ascending []K) {
	t.Helper()
	less := totalOrder[K]()
	for i := 1; i < len(ascending); i++ {
		if !less(ascending[i-1], ascending[i]) || less(ascending[i], ascending[i-1]) {
			t.Fatalf("totalOrder misorders %v and %v", ascending[i-1], ascending[i])
		}
	}
}
