package lsort

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"pgxsort/internal/dist"
)

const benchN = 1 << 18

func benchKeys(kind dist.Kind) []uint64 {
	return dist.Gen{Kind: kind, Seed: 42}.Keys(benchN)
}

// BenchmarkTimSort sorts what the Spark baseline's reduce stage sorts —
// 40-byte entries, by key — with TimSort and, beside it, with the
// standard library's stable sort (slices-stable) that would replace it.
func BenchmarkTimSort(b *testing.B) {
	const n = 1 << 16
	for _, kind := range []dist.Kind{dist.Uniform, dist.RightSkewed, dist.FewDistinct, dist.Sorted} {
		keys := dist.Gen{Kind: kind, Seed: 42}.Keys(n)
		in := make([]benchEntry, n)
		for i, k := range keys {
			in[i] = benchEntry{Key: k, Index: uint32(i)}
		}
		for _, alg := range []struct {
			name string
			sort func([]benchEntry)
		}{
			{"timsort", func(s []benchEntry) { TimSort(s, benchEntryLess) }},
			{"slices-stable", func(s []benchEntry) {
				slices.SortStableFunc(s, func(x, y benchEntry) int { return cmp.Compare(x.Key, y.Key) })
			}},
		} {
			b.Run(kind.String()+"/"+alg.name, func(b *testing.B) {
				buf := make([]benchEntry, n)
				b.SetBytes(n * int64(unsafe.Sizeof(benchEntry{})))
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					alg.sort(buf)
				}
			})
		}
	}
}

// benchEntry has the engine entry's 40-byte layout (comm.Entry[uint64]:
// key, nil payload header, provenance).
type benchEntry struct {
	Key         uint64
	Payload     []byte
	Proc, Index uint32
}

func benchEntryKey(e benchEntry) uint64   { return e.Key }
func benchEntryLess(a, b benchEntry) bool { return a.Key < b.Key }

// radixWidths runs one radix benchmark at the three element widths the
// repo sorts: flat 8-byte keys and 40-byte entries through the generic
// kernel (sort is ParallelRadixSort's worker count; 0 is RadixSort), and
// the 16-byte (norm, index) refs step 1 sorts. Every case copies its
// input in first, so the three differ only in what a pass moves.
func radixWidths(b *testing.B, keys []uint64, workers int) {
	b.Run("flat", func(b *testing.B) {
		buf, scratch := make([]uint64, len(keys)), make([]uint64, len(keys))
		b.SetBytes(int64(len(keys)) * 8)
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			if workers == 0 {
				RadixSort(buf, scratch, idU64, 64)
			} else {
				ParallelRadixSort(buf, scratch, idU64, 64, lessU64, workers)
			}
		}
	})
	b.Run("entry", func(b *testing.B) {
		in := make([]benchEntry, len(keys))
		for i, k := range keys {
			in[i] = benchEntry{Key: k, Index: uint32(i)}
		}
		buf, scratch := make([]benchEntry, len(keys)), make([]benchEntry, len(keys))
		b.SetBytes(int64(len(keys)) * 8)
		for i := 0; i < b.N; i++ {
			copy(buf, in)
			if workers == 0 {
				RadixSort(buf, scratch, benchEntryKey, 64)
			} else {
				ParallelRadixSort(buf, scratch, benchEntryKey, 64, benchEntryLess, workers)
			}
		}
	})
	b.Run("refs", func(b *testing.B) {
		in := refsOf(keys)
		buf, scratch := make([]NormRef, len(keys)), make([]NormRef, len(keys))
		b.SetBytes(int64(len(keys)) * 8)
		for i := 0; i < b.N; i++ {
			copy(buf, in)
			SortNormRefs(buf, scratch, max(workers, 1))
		}
	})
}

// BenchmarkRadixSort times the non-comparison kernels across all eight
// distribution kinds at all three widths; skipping constant byte columns
// makes the low-entropy kinds (sorted over a narrow domain, few-distinct,
// constant) dramatically cheaper than the full eight passes.
func BenchmarkRadixSort(b *testing.B) {
	for _, kind := range dist.AllKinds {
		b.Run(kind.String(), func(b *testing.B) { radixWidths(b, benchKeys(kind), 0) })
	}
}

func BenchmarkParallelRadixSort(b *testing.B) {
	for _, kind := range dist.AllKinds {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(b *testing.B) {
				radixWidths(b, benchKeys(kind), workers)
			})
		}
	}
}

// BenchmarkStdlibSort is the reference point beside BenchmarkRadixSort:
// slices.Sort over the same flat keys, kind for kind.
func BenchmarkStdlibSort(b *testing.B) {
	for _, kind := range dist.AllKinds {
		b.Run(kind.String(), func(b *testing.B) {
			keys := benchKeys(kind)
			buf := make([]uint64, len(keys))
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				copy(buf, keys)
				slices.Sort(buf)
			}
		})
	}
}

func BenchmarkBalancedMergeVsKWay(b *testing.B) {
	const runs = 8
	keys := benchKeys(dist.Uniform)
	bounds := make([]int, runs+1)
	for i := 0; i <= runs; i++ {
		bounds[i] = i * len(keys) / runs
	}
	for i := 0; i < runs; i++ {
		seg := keys[bounds[i]:bounds[i+1]]
		sort.Slice(seg, func(x, y int) bool { return seg[x] < seg[y] })
	}
	runSlices := make([][]uint64, runs)
	for i := range runSlices {
		runSlices[i] = keys[bounds[i]:bounds[i+1]]
	}
	b.Run("balanced-parallel", func(b *testing.B) {
		data := make([]uint64, len(keys))
		scratch := make([]uint64, len(keys))
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			copy(data, keys)
			MergeAdjacentRuns(data, scratch, bounds, lessU64, true)
		}
	})
	b.Run("balanced-sequential", func(b *testing.B) {
		data := make([]uint64, len(keys))
		scratch := make([]uint64, len(keys))
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			copy(data, keys)
			MergeAdjacentRuns(data, scratch, bounds, lessU64, false)
		}
	})
	b.Run("kway-losertree", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			KWayMerge(runSlices, lessU64)
		}
	})
}

func BenchmarkTopKSelection(b *testing.B) {
	keys := benchKeys(dist.Uniform)
	for _, k := range []int{10, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				TopK(keys, k, lessU64)
			}
		})
	}
}

// mergeBenchKinds are the inputs the step-6 kernels are compared on: the
// unpredictable case (uniform), the two predictable ones (sorted: every
// run exhausts before the next begins; few-distinct: long tie streaks)
// and the skewed one the investigator exists for.
var mergeBenchKinds = []dist.Kind{dist.Uniform, dist.Sorted, dist.FewDistinct, dist.RightSkewed}

// sortedRunsOf cuts keys into `runs` equal runs, each sorted.
func sortedRunsOf(keys []uint64, runs int) (out []uint64, bounds []int) {
	out = append([]uint64(nil), keys...)
	bounds = make([]int, runs+1)
	for i := range bounds {
		bounds[i] = i * len(out) / runs
	}
	for i := 0; i < runs; i++ {
		slices.Sort(out[bounds[i]:bounds[i+1]])
	}
	return out, bounds
}

// BenchmarkBalancedMerge is the engine's step 6 at one node both ways, 4
// runs x 2^16 entries: "entry" merges the 40-byte entries under a less
// function (the comparison arm), "refs+gather" builds one ref per entry,
// merges the refs and gathers the entries once (the norm arm, everything
// residentSink.mergeRefs does but the pools). Run with -cpu 1,2.
func BenchmarkBalancedMerge(b *testing.B) {
	for _, kind := range mergeBenchKinds {
		keys, bounds := sortedRunsOf(benchKeys(kind), 4)
		in := make([]benchEntry, len(keys))
		for i, k := range keys {
			in[i] = benchEntry{Key: k, Index: uint32(i)}
		}
		b.Run(kind.String()+"/entry", func(b *testing.B) {
			buf, scratch := make([]benchEntry, len(in)), make([]benchEntry, len(in))
			b.SetBytes(int64(len(in)) * 8)
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				MergeAdjacentRunsOwned(buf, scratch, bounds, benchEntryLess, true)
			}
		})
		b.Run(kind.String()+"/refs+gather", func(b *testing.B) {
			refs, scratch := make([]NormRef, len(in)), make([]NormRef, len(in))
			out := make([]benchEntry, len(in))
			b.SetBytes(int64(len(in)) * 8)
			for i := 0; i < b.N; i++ {
				for j := range in {
					refs[j] = NormRef{Norm: in[j].Key, Idx: uint32(j)}
				}
				order, _ := MergeNormRefRuns(refs, scratch, bounds, true)
				for j, r := range order {
					out[j] = in[r.Idx]
				}
			}
		})
	}
}

// BenchmarkSortNormRefs times step 1's ref sort on the shapes of
// normShapes that cost differently — not on dist.DefaultDomain's 20 bits
// alone, which the benchmarks above draw from — at the sizes the engine
// sorts (2^13: a budgeted chunk; 2^15, 2^16: a resident node's share, the
// parallel kernel's from two workers on) and one past them, ref build
// included as in runFormer.sortStaged. The uniform rows carry the
// machine's reference points: RadixSort and slices.Sort over the same
// keys, flat.
func BenchmarkSortNormRefs(b *testing.B) {
	for _, shape := range normShapes {
		if !shape.bench {
			continue
		}
		for _, n := range []int{1 << 13, 1 << 15, 1 << 16, 1 << 17} {
			norms := shape.norms(n)
			for _, workers := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("%s/n=%d/workers=%d", shape.name, n, workers), func(b *testing.B) {
					refs, scratch := make([]NormRef, n), make([]NormRef, n)
					b.SetBytes(int64(n) * 8)
					for i := 0; i < b.N; i++ {
						for j, k := range norms {
							refs[j] = NormRef{Norm: k, Idx: uint32(j)}
						}
						SortNormRefs(refs, scratch, workers)
					}
				})
			}
			if shape.name != "uniform62" {
				continue
			}
			buf, scratch := make([]uint64, n), make([]uint64, n)
			b.Run(fmt.Sprintf("%s/n=%d/flat-radix", shape.name, n), func(b *testing.B) {
				b.SetBytes(int64(n) * 8)
				for i := 0; i < b.N; i++ {
					copy(buf, norms)
					RadixSort(buf, scratch, idU64, 64)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/slices.Sort", shape.name, n), func(b *testing.B) {
				b.SetBytes(int64(n) * 8)
				for i := 0; i < b.N; i++ {
					copy(buf, norms)
					slices.Sort(buf)
				}
			})
		}
	}
}

// BenchmarkMergeNormRefRuns times the ref kernel alone, sequentially, so
// a change to the two-run loop shows undiluted.
func BenchmarkMergeNormRefRuns(b *testing.B) {
	for _, kind := range mergeBenchKinds {
		keys, bounds := sortedRunsOf(benchKeys(kind), 4)
		in := refsOf(keys)
		b.Run(kind.String(), func(b *testing.B) {
			refs, scratch := make([]NormRef, len(in)), make([]NormRef, len(in))
			b.SetBytes(int64(len(in)) * 8)
			for i := 0; i < b.N; i++ {
				copy(refs, in)
				MergeNormRefRuns(refs, scratch, bounds, false)
			}
		})
	}
}

// BenchmarkMergeCursors is the spilled sink's merge, 2^18 entries in
// batches of up to 1024, with every arm built directly so each is timed
// whatever newCursorMerge would pick: the loser tree under a less function
// alone (/less), the tree comparing cached head norms with no less (/heads:
// an exact norm's arm above roundFanIn), and an exact norm's rounds over
// refs (/rounds: its arm up to roundFanIn). The unprefixed rows are 4
// cursors on every mergeBenchKinds entry; the k= rows put /heads and
// /rounds either side of roundFanIn on the input the rounds like least —
// sorted, which cut into runs is cursors over disjoint key ranges — and on
// uniform.
func BenchmarkMergeCursors(b *testing.B) {
	norm := func(e *benchEntry) uint64 { return e.Key }
	refs := make([]NormRef, 2*roundRefs)
	bench := func(b *testing.B, prefix string, kind dist.Kind, k int, arms ...string) {
		keys, bounds := sortedRunsOf(benchKeys(kind), k)
		in := make([]benchEntry, len(keys))
		for i, key := range keys {
			in[i] = benchEntry{Key: key, Index: uint32(i)}
		}
		dst := make([]benchEntry, len(in))
		for _, arm := range arms {
			b.Run(prefix+kind.String()+"/"+arm, func(b *testing.B) {
				b.SetBytes(int64(len(in)) * 8)
				for i := 0; i < b.N; i++ {
					cs := make([]Cursor[benchEntry], k)
					for c := range cs {
						cs[c] = &batchCursor[benchEntry]{run: in[bounds[c]:bounds[c+1]], batch: 1024}
					}
					var m cursorMerge[benchEntry]
					switch arm {
					case "less":
						m, _ = newCursorTree(cs, nil, benchEntryLess)
					case "heads":
						m, _ = newCursorTree(cs, norm, nil)
					case "rounds":
						m, _ = newCursorRounds(cs, norm, refs)
					}
					if n, _ := m.pop(dst); n != len(dst) {
						b.Fatalf("merged %d of %d entries", n, len(dst))
					}
				}
			})
		}
	}
	for _, kind := range mergeBenchKinds {
		bench(b, "", kind, 4, "less", "heads", "rounds")
	}
	for _, k := range []int{16, 64, 128, 1024} {
		for _, kind := range []dist.Kind{dist.Sorted, dist.Uniform} {
			bench(b, fmt.Sprintf("k=%d/", k), kind, k, "heads", "rounds")
		}
	}
}
