package core

import (
	"cmp"
	"fmt"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/sample"
)

// loadBoundShare is each processor's share in TestPropertyLoadBound, and
// loadBoundSamples the samples it sends: few enough that the bound says
// something about sampling, not just about splitting every key.
const (
	loadBoundShare   = 800
	loadBoundSamples = 64
)

// loadBoundReports sorts each of the inputs on one engine of opts over
// codec, with a sample buffer of loadBoundSamples keys a processor, and
// returns their reports.
func loadBoundReports[K cmp.Ordered](t *testing.T, codec comm.Codec[K], opts Options, inputs int, sortOne func(e *Engine[K], i int) (*Result[K], error)) []*Report {
	t.Helper()
	opts.BufferBytes = loadBoundSamples * opts.Procs * codec.KeySize()
	e, err := NewEngine[K](opts, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	reps := make([]*Report, inputs)
	for i := range reps {
		res, err := sortOne(e, i)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		reps[i] = &res.Report
	}
	return reps
}

// TestPropertyLoadBound is the paper's balance claim as an assertion:
// for every dist kind, on uint64 keys, string keys and records, at every
// p from 2 to 16, resident and budgeted, equal shares of m keys leave
// max/avg within 1 + sample.Epsilon(p, s, m), s the fewest samples a
// processor sent. The bound is derived in sample.Epsilon's comment from
// regular sampling and exact-rank cuts; nothing here is fitted to the
// data. Cutting on keys alone (DisableInvestigator) breaks it on the
// constant, few-distinct and right-skewed kinds.
func TestPropertyLoadBound(t *testing.T) {
	base := make([][][]uint64, len(dist.AllKinds)) // kind, proc, key
	types := []struct {
		name string
		run  func(t *testing.T, opts Options, base [][][]uint64) []*Report
	}{
		{"uint64", func(t *testing.T, opts Options, base [][][]uint64) []*Report {
			return loadBoundReports(t, comm.U64Codec{}, opts, len(base), func(e *Engine[uint64], i int) (*Result[uint64], error) {
				return e.Sort(base[i])
			})
		}},
		{"string", func(t *testing.T, opts Options, base [][][]uint64) []*Report {
			return loadBoundReports(t, comm.StringCodec{}, opts, len(base), func(e *Engine[string], i int) (*Result[string], error) {
				parts := make([][]string, len(base[i]))
				for q, keys := range base[i] {
					for _, k := range keys {
						parts[q] = append(parts[q], dist.StringKey("shared-prefix-", k, 0))
					}
				}
				return e.Sort(parts)
			})
		}},
		{"records", func(t *testing.T, opts Options, base [][][]uint64) []*Report {
			codec := comm.NewRecordCodec[uint64](comm.U64Codec{})
			return loadBoundReports(t, codec, opts, len(base), func(e *Engine[uint64], i int) (*Result[uint64], error) {
				recs := make([][]comm.Record[uint64], len(base[i]))
				for q, keys := range base[i] {
					for j, k := range keys {
						recs[q] = append(recs[q], comm.Record[uint64]{Key: k, Payload: []byte{byte(q), byte(j)}})
					}
				}
				return e.SortRecords(recs)
			})
		}},
	}
	for p := 2; p <= 16; p++ {
		if testing.Short() && p != 2 && p != 3 && p != 7 && p != 16 {
			continue // the ends and two odd counts; the full sweep runs without -short
		}
		for ki, kind := range dist.AllKinds {
			base[ki] = mkParts(kind, p, loadBoundShare, uint64(97*p))
		}
		for _, budgeted := range []bool{false, true} {
			opts := Options{Procs: p, WorkersPerProc: 1, MemoryBudget: -1}
			if budgeted {
				opts.MemoryBudget = spillBudget[uint64](loadBoundShare)
				opts.SpillDir = t.TempDir()
			}
			for _, ty := range types {
				t.Run(fmt.Sprintf("%s/p=%d/budgeted=%v", ty.name, p, budgeted), func(t *testing.T) {
					for ki, rep := range ty.run(t, opts, base) {
						s := rep.PerNode[0].SamplesSent
						for _, nr := range rep.PerNode {
							s = min(s, nr.SamplesSent)
						}
						bound := 1 + sample.Epsilon(p, s, loadBoundShare)
						if imb := rep.LoadImbalance(); imb > bound {
							t.Errorf("%v: max/avg %.4f exceeds 1+ε = %.4f (s=%d, parts %v)",
								dist.AllKinds[ki], imb, bound, s, rep.PartSizes())
						}
					}
				})
			}
		}
	}
}
