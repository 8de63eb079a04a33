package pgxsort

// The Go benchmarks with no other home: SortMany schedules and allocation
// churn, the string pipeline, the record path over both transports and
// the budgeted (spilling) sort. The paper's tables and figures are cmd/pgxsort-bench's, the
// shipped system's speed and allocations benchmark/'s, the local-sort
// kernels internal/lsort's.

import (
	"context"
	"fmt"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
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

// BenchmarkSortManyPipeline compares SortMany admission caps on the
// Figure 5/6 multi-dataset mix — one dataset per input distribution,
// sorted over one engine: one dataset at a time (sequential), two at a
// time (the default, pipelined), and every dataset at once
// (all-admitted). Admitted datasets share the nodes and links, so one
// dataset's exchange can overlap another's local compute.
func BenchmarkSortManyPipeline(b *testing.B) {
	datasets := make([][][]uint64, len(dist.Kinds))
	for d, kind := range dist.Kinds {
		datasets[d] = benchParts(kind, benchProcs, benchN)
	}
	totalKeys := int64(len(datasets)) * benchN
	for _, mode := range []struct {
		name string
		opts core.SortManyOpts
	}{
		{"sequential", core.SortManyOpts{MaxInflight: 1}},
		{"all-admitted", core.SortManyOpts{MaxInflight: len(datasets)}},
		{"pipelined", core.SortManyOpts{MaxInflight: 2}},
	} {
		b.Run(fmt.Sprintf("%s/p=%d", mode.name, benchProcs), func(b *testing.B) {
			eng, err := core.NewEngine[uint64](
				core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs}, comm.U64Codec{})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.SetBytes(totalKeys * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SortManyWith(context.Background(), mode.opts, datasets...); err != nil {
					b.Fatal(err)
				}
			}
		})
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
				if _, err := eng.Sort(parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecordSort times key+payload sorts across payload sizes: 0 B
// (the record codec's overhead floor), 16 B (a compact row) and 256 B
// (a wide row dominating the exchange volume). Its tcp-skewed-128B case
// replays the repository benchmark's tcp_records_skewed operation —
// 2^18 right-skewed keys with 128-byte payloads on p = 4 processors of 2
// workers over the TCP loopback mesh, unbudgeted, alternating two inputs
// — so the record path through the codec's word loops and the transport
// has a profile one command away:
//
//	go test -run '^$' -bench 'RecordSort/tcp' -cpuprofile cpu.prof .
func BenchmarkRecordSort(b *testing.B) {
	run := func(b *testing.B, opts core.Options, datasets [][][]comm.Record[uint64], bytes int64) {
		eng, err := core.NewEngine[uint64](opts, comm.NewRecordCodec[uint64](comm.U64Codec{}))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.SetBytes(bytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SortRecords(datasets[i%len(datasets)]); err != nil {
				b.Fatal(err)
			}
		}
	}
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
			run(b, core.Options{Procs: benchProcs, WorkersPerProc: benchWkrs}, [][][]comm.Record[uint64]{recs}, int64(benchN)*int64(8+payload))
		})
	}
	b.Run("tcp-skewed-128B", func(b *testing.B) {
		const n, procs, inputs, payload = 1 << 18, 4, 2, 128
		datasets := make([][][]comm.Record[uint64], inputs)
		for in := range datasets {
			keys := dist.Gen{Kind: dist.RightSkewed, Seed: 1 + uint64(in)}.Keys(n)
			arena := make([]byte, n*payload) // one block: no per-record object for the GC to scan
			for i := range arena {
				arena[i] = byte(i*131 + in)
			}
			recs := make([]comm.Record[uint64], n)
			for i, k := range keys {
				recs[i] = comm.Record[uint64]{Key: k, Payload: arena[i*payload : (i+1)*payload : (i+1)*payload]}
			}
			datasets[in] = core.Blocks(recs, procs)
		}
		run(b, core.Options{Procs: procs, WorkersPerProc: benchWkrs, Transport: TransportTCP, MemoryBudget: -1}, datasets, n*(8+payload))
	})
}

// BenchmarkBudgetedSort replays the repository benchmark's
// spill_uniform_u64 operation — 2^16 uniform 62-bit keys on p = 4
// processors of 2 workers under a MemoryBudget of 8 B a key and a private
// SpillDir — so the out-of-core pipeline (step 1's chunk runs and their
// merge, the spilled exchange sink and step 6's cursor merge) has a
// profile one command away:
//
//	go test -run '^$' -bench BudgetedSort -cpuprofile cpu.prof .
//
// The sort must go by ref through its spill runs: its resident memory is
// step 1's refs and the result's entries, 16 + 40 bytes a key, where a
// sort by entry holds 40 + 40. And it must keep to its shape: a node's
// ref sort, 32 bytes a key, fits the budget exactly, so only the exchange
// spills, a ref a key (SpillBytes 16 a key), and no node's temporary
// peak passes the budget.
func BenchmarkBudgetedSort(b *testing.B) {
	const n, procs = 1 << 16, 4
	const budget = n * 8
	const refBytes, entryBytes = 16, 40
	flat := dist.Gen{Kind: dist.Uniform, Seed: 1, Domain: 1 << 62}.Keys(n)
	parts := make([][]uint64, procs)
	for p := range parts {
		parts[p] = flat[p*n/procs : (p+1)*n/procs]
	}
	eng, err := core.NewEngine[uint64](core.Options{
		Procs: procs, WorkersPerProc: benchWkrs, MemoryBudget: budget, SpillDir: b.TempDir(),
	}, comm.U64Codec{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.SetBytes(n * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Sort(parts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.SpillBytes != n*refBytes {
			b.Fatalf("spilled %d bytes for %d keys, want a ref a key", res.Report.SpillBytes, n)
		}
		if res.Report.ResidentBytes != n*(refBytes+entryBytes) {
			b.Fatalf("resident %d bytes for %d keys: the sort did not go by ref", res.Report.ResidentBytes, n)
		}
		for p, nr := range res.Report.PerNode {
			if nr.TempPeakBytes > budget {
				b.Fatalf("node %d peaked at %d temporary bytes over the %d-byte budget", p, nr.TempPeakBytes, budget)
			}
		}
	}
}

// BenchmarkKeySort replays the repository benchmark's chan_uniform_u64
// operation — 2^18 uniform 62-bit keys on p = 4 processors of 2 workers
// over the chan transport, unbudgeted, rotating over four inputs — so
// the resident key-only pipeline has a profile one command away:
//
//	go test -run '^$' -bench KeySort -cpuprofile cpu.prof .
//
// The sort must go by ref (16-byte refs from step 1 to the result): its
// resident memory is step 1's refs and the result's entries, 16 + 40
// bytes a key, where a sort by entry holds 40 + 40.
func BenchmarkKeySort(b *testing.B) {
	const n, procs, inputs = 1 << 18, 4, 4
	const refBytes, entryBytes = 16, 40
	datasets := make([][][]uint64, inputs)
	for in := range datasets {
		datasets[in] = core.Blocks(dist.Gen{Kind: dist.Uniform, Seed: 1 + uint64(in), Domain: 1 << 62}.Keys(n), procs)
	}
	eng, err := core.NewEngine[uint64](core.Options{
		Procs: procs, WorkersPerProc: benchWkrs, Transport: TransportChan, MemoryBudget: -1,
	}, comm.U64Codec{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.SetBytes(n * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Sort(datasets[i%inputs])
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.ResidentBytes != n*(refBytes+entryBytes) {
			b.Fatalf("resident %d bytes for %d keys: the sort did not go by ref", res.Report.ResidentBytes, n)
		}
	}
}
