package pgxsort

// One benchmark per table and figure of the paper's evaluation (§V), plus
// the ablations listed in DESIGN.md. These run at laptop scale; the
// cmd/pgxsort-bench CLI regenerates the full tables at configurable sizes.

import (
	"context"
	"fmt"
	"testing"

	"pgxsort/internal/baselines"
	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/graph"
	"pgxsort/internal/harness"
	"pgxsort/internal/spark"
)

const (
	benchN     = 200_000
	benchProcs = 8
	benchWkrs  = 2
)

// benchParts builds the per-processor inputs for one distribution, using
// the duplicate-heavy domains for the skewed kinds (see harness.Config).
func benchParts(kind dist.Kind, procs, total int) [][]uint64 {
	var domain uint64
	switch kind {
	case dist.RightSkewed:
		domain = 64
	case dist.Exponential:
		domain = 12
	}
	parts := make([][]uint64, procs)
	per := total / procs
	for i := range parts {
		parts[i] = dist.Gen{Kind: kind, Seed: uint64(7919*i + 1), Domain: domain}.Keys(per)
	}
	return parts
}

func benchTwitterDegrees(scale int) []uint64 {
	g := graph.TwitterLike(graph.RMATConfig{Scale: scale, EdgeFactor: 16, Seed: 99})
	return g.Degrees(nil)
}

func sortOnce(b *testing.B, parts [][]uint64, opts core.Options) *core.Report {
	b.Helper()
	opts.Procs = len(parts)
	if opts.WorkersPerProc == 0 {
		opts.WorkersPerProc = benchWkrs
	}
	eng, err := core.NewEngine[uint64](opts, comm.U64Codec{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Sort(parts)
	if err != nil {
		b.Fatal(err)
	}
	return &res.Report
}

// BenchmarkFig4Distributions measures dataset generation for the four
// input distributions of Figure 4.
func BenchmarkFig4Distributions(b *testing.B) {
	for _, kind := range dist.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			out := make([]uint64, benchN)
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				dist.Gen{Kind: kind, Seed: uint64(i)}.Fill(out)
			}
		})
	}
}

// BenchmarkFig5TotalTime measures PGX.D total sort time per distribution
// (Figure 5).
func BenchmarkFig5TotalTime(b *testing.B) {
	for _, kind := range dist.Kinds {
		b.Run(fmt.Sprintf("%s/p=%d", kind, benchProcs), func(b *testing.B) {
			parts := benchParts(kind, benchProcs, benchN)
			b.SetBytes(benchN * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := sortOnce(b, parts, core.Options{})
				if i == b.N-1 {
					b.ReportMetric(rep.LoadImbalance(), "max/avg")
				}
			}
		})
	}
}

// BenchmarkFig6StrongScaling measures both engines across processor
// counts (Figure 6).
func BenchmarkFig6StrongScaling(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		parts := benchParts(dist.Uniform, p, benchN)
		b.Run(fmt.Sprintf("pgxd/p=%d", p), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				sortOnce(b, parts, core.Options{})
			}
		})
		b.Run(fmt.Sprintf("spark/p=%d", p), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				sc := spark.NewContext(spark.Config{Partitions: p, TotalCores: p * benchWkrs, Seed: 1})
				rdd, err := spark.FromParts(sc, parts)
				if err != nil {
					b.Fatal(err)
				}
				spark.SortByKey(rdd, comm.U64Codec{})
				sc.Close()
			}
		})
	}
}

// BenchmarkSortManyPipeline compares SortMany schedules — sequential,
// naive-concurrent (the old unbounded go-per-dataset behaviour) and the
// pipelined scheduler — on the Figure 5/6 multi-dataset mix: one dataset
// per input distribution, sorted over one engine. The pipelined schedule
// overlaps one dataset's exchange with another's local compute; its
// throughput win over both baselines is ISSUE 2's headline number.
func BenchmarkSortManyPipeline(b *testing.B) {
	datasets := make([][][]uint64, len(dist.Kinds))
	for d, kind := range dist.Kinds {
		datasets[d] = benchParts(kind, benchProcs, benchN)
	}
	totalKeys := int64(len(datasets)) * benchN
	// Same schedule table as the harness "pipeline" experiment, so the
	// Go-bench smoke numbers and the CI CSV artifact stay comparable.
	for _, mode := range harness.PipelineModes(2) {
		b.Run(fmt.Sprintf("%s/p=%d", mode.Name, benchProcs), func(b *testing.B) {
			eng, err := core.NewEngine[uint64](
				core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs}, comm.U64Codec{})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.SetBytes(totalKeys * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SortManyWith(context.Background(), mode.Opts, datasets...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7StepBreakdown reports per-step times as metrics (Figure 7).
func BenchmarkFig7StepBreakdown(b *testing.B) {
	for _, kind := range []dist.Kind{dist.Normal, dist.RightSkewed} {
		b.Run(kind.String(), func(b *testing.B) {
			parts := benchParts(kind, benchProcs, benchN)
			b.SetBytes(benchN * 8)
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = sortOnce(b, parts, core.Options{})
			}
			for s := core.Step(0); s < core.NumSteps; s++ {
				b.ReportMetric(float64(last.Steps[s].Microseconds())/1000,
					s.String()+"-ms")
			}
		})
	}
}

// BenchmarkTable2LoadBalance sorts duplicate-heavy data on 10 processors
// and reports the balance (Table II).
func BenchmarkTable2LoadBalance(b *testing.B) {
	for _, kind := range []dist.Kind{dist.RightSkewed, dist.Exponential} {
		b.Run(kind.String(), func(b *testing.B) {
			parts := benchParts(kind, 10, benchN)
			b.SetBytes(benchN * 8)
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = sortOnce(b, parts, core.Options{})
			}
			b.ReportMetric(last.LoadImbalance(), "max/avg")
		})
	}
}

// BenchmarkFig8TwitterSort measures both engines on the Twitter-like
// degree keys (Figure 8).
func BenchmarkFig8TwitterSort(b *testing.B) {
	degrees := benchTwitterDegrees(14)
	parts := make([][]uint64, benchProcs)
	for i := range parts {
		lo := i * len(degrees) / benchProcs
		hi := (i + 1) * len(degrees) / benchProcs
		parts[i] = degrees[lo:hi]
	}
	b.Run("pgxd", func(b *testing.B) {
		b.SetBytes(int64(len(degrees)) * 8)
		for i := 0; i < b.N; i++ {
			sortOnce(b, parts, core.Options{})
		}
	})
	b.Run("spark", func(b *testing.B) {
		b.SetBytes(int64(len(degrees)) * 8)
		for i := 0; i < b.N; i++ {
			sc := spark.NewContext(spark.Config{Partitions: benchProcs, TotalCores: benchProcs * benchWkrs, Seed: 1})
			rdd, err := spark.FromParts(sc, parts)
			if err != nil {
				b.Fatal(err)
			}
			spark.SortByKey(rdd, comm.U64Codec{})
			sc.Close()
		}
	})
}

// BenchmarkTable3PartRanges sorts Twitter-like degrees and walks the
// per-processor ranges (Table III).
func BenchmarkTable3PartRanges(b *testing.B) {
	degrees := benchTwitterDegrees(13)
	for _, p := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			parts := make([][]uint64, p)
			for i := range parts {
				lo := i * len(degrees) / p
				hi := (i + 1) * len(degrees) / p
				parts[i] = degrees[lo:hi]
			}
			b.SetBytes(int64(len(degrees)) * 8)
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine[uint64](core.Options{Procs: p, WorkersPerProc: benchWkrs}, comm.U64Codec{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Sort(parts)
				if err != nil {
					b.Fatal(err)
				}
				ranges := res.PartRanges()
				if len(ranges) != p {
					b.Fatal("wrong range count")
				}
				eng.Close()
			}
		})
	}
}

// BenchmarkFig9SampleSize sweeps the sample-size factor (Figure 9).
func BenchmarkFig9SampleSize(b *testing.B) {
	degrees := benchTwitterDegrees(13)
	parts := make([][]uint64, benchProcs)
	for i := range parts {
		lo := i * len(degrees) / benchProcs
		hi := (i + 1) * len(degrees) / benchProcs
		parts[i] = degrees[lo:hi]
	}
	for _, f := range []float64{0.004, 0.04, 0.4, 1.0, 1.4} {
		b.Run(fmt.Sprintf("factor=%.3fX", f), func(b *testing.B) {
			b.SetBytes(int64(len(degrees)) * 8)
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = sortOnce(b, parts, core.Options{SampleFactor: f})
			}
			b.ReportMetric(float64(last.BytesSent), "comm-bytes")
			b.ReportMetric(last.LoadImbalance(), "max/avg")
		})
	}
}

// BenchmarkFig10MinMaxLoad reports min/max loads for the three factors of
// Figure 10.
func BenchmarkFig10MinMaxLoad(b *testing.B) {
	parts := benchParts(dist.RightSkewed, benchProcs, benchN)
	for _, f := range []float64{0.004, 1.0, 1.4} {
		b.Run(fmt.Sprintf("factor=%.3fX", f), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = sortOnce(b, parts, core.Options{SampleFactor: f})
			}
			minPart, maxPart := last.MinMaxPart()
			b.ReportMetric(float64(minPart), "min-part")
			b.ReportMetric(float64(maxPart), "max-part")
		})
	}
}

// BenchmarkFig11Memory reports the memory accounting of Figure 11.
func BenchmarkFig11Memory(b *testing.B) {
	degrees := benchTwitterDegrees(13)
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			parts := make([][]uint64, p)
			for i := range parts {
				lo := i * len(degrees) / p
				hi := (i + 1) * len(degrees) / p
				parts[i] = degrees[lo:hi]
			}
			b.SetBytes(int64(len(degrees)) * 8)
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = sortOnce(b, parts, core.Options{})
			}
			b.ReportMetric(float64(last.ResidentBytes)/(1<<20), "resident-MB")
			b.ReportMetric(float64(last.TempPeakBytes)/(1<<20), "temp-peak-MB")
		})
	}
}

// BenchmarkAblationInvestigator isolates the investigator (DESIGN.md).
func BenchmarkAblationInvestigator(b *testing.B) {
	parts := benchParts(dist.RightSkewed, 10, benchN)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchN * 8)
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = sortOnce(b, parts, core.Options{DisableInvestigator: disable})
			}
			b.ReportMetric(last.LoadImbalance(), "max/avg")
		})
	}
}

// BenchmarkAblationAsyncExchange compares exchange schedules.
func BenchmarkAblationAsyncExchange(b *testing.B) {
	parts := benchParts(dist.Uniform, benchProcs, benchN)
	for _, sync := range []bool{false, true} {
		name := "async"
		if sync {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				sortOnce(b, parts, core.Options{SyncExchange: sync})
			}
		})
	}
}

// BenchmarkAblationTransport compares chan and TCP transports.
func BenchmarkAblationTransport(b *testing.B) {
	parts := benchParts(dist.Uniform, 4, benchN)
	for _, tr := range []string{TransportChan, TransportTCP} {
		b.Run(tr, func(b *testing.B) {
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				sortOnce(b, parts, core.Options{Transport: tr})
			}
		})
	}
}

// BenchmarkBaselineSorters times the related-work baselines (§II).
func BenchmarkBaselineSorters(b *testing.B) {
	parts := benchParts(dist.Uniform, benchProcs, benchN)
	// Radix buckets key on the top bits; spread the 2^20 domain up.
	spread := make([][]uint64, len(parts))
	for i, part := range parts {
		spread[i] = make([]uint64, len(part))
		for j, k := range part {
			spread[i][j] = k << 43
		}
	}
	b.Run("bitonic", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			if _, _, err := baselines.BitonicSort(spread, comm.U64Codec{}, TransportChan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("radix", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			if _, _, err := baselines.RadixSort(spread, TransportChan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLocalSortPrimitives compares the local sorting building blocks.
func BenchmarkLocalSortPrimitives(b *testing.B) {
	keys := dist.Gen{Kind: dist.Uniform, Seed: 5}.Keys(benchN)
	b.Run("facade-one-shot", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			if _, _, err := Sort(keys, Options{Procs: benchProcs, WorkersPerProc: benchWkrs}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLocalSortPath compares the step-1 paths end to end (ISSUE 3):
// the paper's comparison sort against the radix fast path over normalized
// keys (what LocalSortAuto resolves to for uint64), per distribution kind
// on a persistent cluster.
func BenchmarkLocalSortPath(b *testing.B) {
	for _, kind := range []dist.Kind{dist.Uniform, dist.RightSkewed, dist.FewDistinct} {
		parts := benchParts(kind, benchProcs, benchN)
		for _, mode := range []core.LocalSortMode{core.LocalSortComparison, core.LocalSortAuto} {
			b.Run(fmt.Sprintf("%s/%s", kind, mode), func(b *testing.B) {
				eng, err := core.NewEngine[uint64](
					core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs, LocalSort: mode}, comm.U64Codec{})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.SetBytes(benchN * 8)
				b.ResetTimer()
				var last *core.Report
				for i := 0; i < b.N; i++ {
					res, err := eng.Sort(parts)
					if err != nil {
						b.Fatal(err)
					}
					last = &res.Report
				}
				b.ReportMetric(float64(last.Steps[core.StepLocalSort].Microseconds())/1000, "local-sort-ms")
			})
		}
	}
}

// BenchmarkSortManyAlloc measures allocation churn of a pipelined
// SortMany batch (ISSUE 3): the scratch-buffer pools recycle the entry
// buffers, merge scratch and exchange assemblies across datasets.
func BenchmarkSortManyAlloc(b *testing.B) {
	const allocN = 100_000
	datasets := make([][][]uint64, len(dist.Kinds))
	for d, kind := range dist.Kinds {
		datasets[d] = benchParts(kind, benchProcs, allocN)
	}
	totalKeys := int64(len(datasets)) * allocN
	eng, err := core.NewEngine[uint64](
		core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs}, comm.U64Codec{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	// Warm the pools outside the measured window, as a steady-state
	// service would be.
	if _, err := eng.SortMany(datasets...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(totalKeys * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SortMany(datasets...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStringSort times the variable-width string pipeline: the
// length-prefixed codec, the 8-byte-prefix radix norm, and (in the
// "prefixed" variants) the comparison fallback over prefix-equal runs.
func BenchmarkStringSort(b *testing.B) {
	for _, prefix := range []struct{ name, p string }{
		{"short-keys", ""},
		{"prefixed", "a-shared-prefix-way-past-the-norm/"},
	} {
		b.Run(prefix.name, func(b *testing.B) {
			parts := make([][]string, benchProcs)
			bytesPerRun := int64(0)
			for i := range parts {
				parts[i] = dist.Gen{Kind: dist.RightSkewed, Seed: uint64(7919*i + 1), Domain: 64}.
					Strings(benchN/benchProcs, prefix.p)
				for _, k := range parts[i] {
					bytesPerRun += int64(len(k))
				}
			}
			eng, err := core.NewEngine[string](
				core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs}, comm.StringCodec{})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.SetBytes(bytesPerRun)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Sort(parts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && res.Report.LocalSortPath != "radix" {
					b.Fatalf("string sort took the %s path", res.Report.LocalSortPath)
				}
			}
		})
	}
}

// BenchmarkRecordSort times key+payload sorts across payload sizes: 0 B
// (the record codec's overhead floor), 16 B (a compact row) and 256 B
// (a wide row dominating the exchange volume).
func BenchmarkRecordSort(b *testing.B) {
	for _, payload := range []int{0, 16, 256} {
		b.Run(fmt.Sprintf("payload-%dB", payload), func(b *testing.B) {
			per := benchN / benchProcs
			recs := make([][]comm.Record[uint64], benchProcs)
			for i := range recs {
				keys := dist.Gen{Kind: dist.Uniform, Seed: uint64(7919*i + 1)}.Keys(per)
				pays := dist.Gen{Seed: uint64(i + 1)}.Payloads(per, payload)
				part := make([]comm.Record[uint64], per)
				for j := range part {
					part[j] = comm.Record[uint64]{Key: keys[j], Payload: pays[j]}
				}
				recs[i] = part
			}
			eng, err := core.NewEngine[uint64](
				core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs},
				comm.NewRecordCodec[uint64](comm.U64Codec{}))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.SetBytes(int64(benchN) * int64(8+payload))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SortRecords(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
