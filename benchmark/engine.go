package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"time"

	"pgxsort"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// Every workload sorts on p = 4 simulated processors of 2 workers.
const (
	procs   = 4
	workers = 2
)

// wideDomain makes "uniform uint64" mean keys spread over 62 bits, so
// the radix sort has all eight bytes to do and duplicates are rare.
const wideDomain = 1 << 62

// workload is one set of inputs and the system they run on.
type workload interface {
	name() string
	defaultKeys() int   // keys per operation
	response() response // how its operations follow the calibration kernel
	clients() int       // concurrent closed-loop callers
	// prepare generates the inputs from the seed and computes the
	// reference outputs; it runs before, and outside, set-up.
	prepare(seed uint64, keys int, tmp string) error
	setup() error
	warm(i int) opOutcome
	// op runs and verifies operation i of one client. A non-nil tracer
	// means the operation is traced.
	op(client, i int, tr *tracer) opOutcome
	teardown() error
	// mark notes the start of a traced window, for counters read as deltas.
	mark() error
	// layerR sets the per-layer metrics that come from the program's
	// public outputs (source R), from the traced operations of a window.
	layerR(outs []opOutcome, m *metrics) error
	// replayInput is what the replay spans (source S) run on.
	replayInput() replayInput
}

// engineWorkload calls the library: Sort or SortRecords on a Cluster.
type engineWorkload struct {
	wname        string
	keys         int
	kind         dist.Kind
	domain       uint64
	transport    string
	payload      int   // bytes per record; 0 sorts bare keys
	budgetPerKey int64 // MemoryBudget = keys × this; 0 means no budget
	inputs       int   // rotating inputs
	resp         response

	n       int
	tmp     string
	parts   [][][]uint64              // key-only: [input][proc]
	recs    [][][]comm.Record[uint64] // records:  [input][proc]
	want    [][]uint64                // sorted keys per input
	seen    []bool                    // origin bitmap, reused by verify
	cluster *pgxsort.Cluster[uint64]  // nil between teardown and set-up
	spill   string                    // private SpillDir of the current cluster
}

func (w *engineWorkload) name() string     { return w.wname }
func (w *engineWorkload) defaultKeys() int { return w.keys }
func (w *engineWorkload) clients() int     { return 1 }

func (w *engineWorkload) response() response { return w.resp }

func (w *engineWorkload) prepare(seed uint64, keys int, tmp string) error {
	w.n, w.tmp = keys, tmp
	w.seen = make([]bool, keys)
	for in := 0; in < w.inputs; in++ {
		g := dist.Gen{Kind: w.kind, Seed: seed + uint64(in), Domain: w.domain}
		flat := g.Keys(keys)
		ref := slices.Clone(flat)
		slices.Sort(ref)
		w.want = append(w.want, ref)
		parts := make([][]uint64, procs)
		for p := range parts {
			parts[p] = flat[p*keys/procs : (p+1)*keys/procs]
		}
		w.parts = append(w.parts, parts)
		if w.payload == 0 {
			continue
		}
		// One arena for all payloads: a quarter of a million separate
		// slices would make every collection between operations scan them.
		arena := make([]byte, keys*w.payload)
		rng := dist.NewRNG(seed ^ 0x9a1b2c3d4e5f6071 + uint64(in))
		for i := 0; i+8 <= len(arena); i += 8 {
			v := rng.Uint64()
			for k := 0; k < 8; k++ {
				arena[i+k] = byte(v >> (8 * k))
			}
		}
		recs := make([][]comm.Record[uint64], procs)
		for p := range recs {
			lo := p * keys / procs
			recs[p] = make([]comm.Record[uint64], len(parts[p]))
			for i, k := range parts[p] {
				off := (lo + i) * w.payload
				recs[p][i] = comm.Record[uint64]{Key: k, Payload: arena[off : off+w.payload : off+w.payload]}
			}
		}
		w.recs = append(w.recs, recs)
	}
	return nil
}

func (w *engineWorkload) setup() error {
	opts := pgxsort.Options{Procs: procs, WorkersPerProc: workers, Transport: w.transport, MemoryBudget: -1}
	if w.budgetPerKey > 0 {
		dir, err := os.MkdirTemp(w.tmp, "spill-")
		if err != nil {
			return err
		}
		w.spill = dir
		opts.MemoryBudget = int64(w.n) * w.budgetPerKey
		opts.SpillDir = dir
	}
	var err error
	if w.payload > 0 {
		w.cluster, err = pgxsort.NewRecordCluster[uint64](opts)
	} else {
		w.cluster, err = pgxsort.NewCluster[uint64](opts)
	}
	return err
}

func (w *engineWorkload) teardown() error {
	if w.cluster == nil {
		return nil
	}
	err := w.cluster.Close()
	w.cluster = nil
	if w.spill != "" {
		if rerr := os.RemoveAll(w.spill); err == nil {
			err = rerr
		}
		w.spill = ""
	}
	return err
}

func (w *engineWorkload) mark() error { return nil }

func (w *engineWorkload) warm(i int) opOutcome { return w.op(0, i, nil) }

func (w *engineWorkload) op(_, i int, tr *tracer) opOutcome {
	in := i % w.inputs
	root := tr.begin("op", -1, i)
	call := tr.begin("pgxsort.Sort", root, i)
	var res *pgxsort.Result[uint64]
	var err error
	t0 := time.Now()
	if w.payload > 0 {
		res, err = w.cluster.SortRecords(w.recs[in])
	} else {
		res, err = w.cluster.Sort(w.parts[in])
	}
	wall := time.Since(t0)
	tr.end(call)
	defer tr.end(root)
	if err != nil {
		return failedOp(w.n, wall, "sort: %v", err)
	}
	check := tr.begin("verify", root, i)
	err = w.verify(in, res)
	tr.end(check)
	if err != nil {
		return failedOp(w.n, wall, "%v", err)
	}
	// A workload that silently takes the other pipeline must fail, not
	// report a flattering number.
	if spilled := res.Report.SpillBytes > 0; spilled != (w.budgetPerKey > 0) {
		return failedOp(w.n, wall, "wrong pipeline: spilled %d bytes under budget-per-key %d", res.Report.SpillBytes, w.budgetPerKey)
	}
	// A copy: a pointer into the Result would keep its entries alive for
	// the rest of the window.
	rep := res.Report.Snapshot()
	return opOutcome{keys: w.n, wall: wall, rep: &rep}
}

// verify holds a result to the reference computed in prepare: the keys,
// in order, are exactly slices.Sort of the input, and the origins are a
// permutation of the input in which every entry carries the key and,
// for records, the payload bytes it was given. It allocates nothing, so
// it does not show in alloc_bytes_per_key.
func (w *engineWorkload) verify(in int, res *pgxsort.Result[uint64]) error {
	want := w.want[in]
	if got := res.Len(); got != len(want) {
		return fmt.Errorf("result has %d entries, want %d", got, len(want))
	}
	clear(w.seen)
	k := 0
	for _, part := range res.Parts {
		for _, e := range part {
			if e.Key != want[k] {
				return fmt.Errorf("key %d is %d, reference has %d", k, e.Key, want[k])
			}
			k++
			p, idx := int(e.Proc), int(e.Index)
			if p >= procs || idx >= len(w.parts[in][p]) {
				return fmt.Errorf("origin (%d,%d) out of range", p, idx)
			}
			flat := p*w.n/procs + idx
			if w.seen[flat] {
				return fmt.Errorf("origin (%d,%d) appears twice", p, idx)
			}
			w.seen[flat] = true
			if w.parts[in][p][idx] != e.Key {
				return fmt.Errorf("entry with key %d claims origin (%d,%d) whose key is %d", e.Key, p, idx, w.parts[in][p][idx])
			}
			if w.payload > 0 && !bytes.Equal(e.Payload, w.recs[in][p][idx].Payload) {
				return fmt.Errorf("payload of origin (%d,%d) differs from the input", p, idx)
			}
		}
	}
	return nil
}

func (w *engineWorkload) replayInput() replayInput {
	r := replayInput{transport: w.transport, flat: slices.Concat(w.parts[0]...)}
	if r.transport == "" {
		r.transport = pgxsort.TransportChan
	}
	r.codec = comm.Codec[uint64](comm.U64Codec{})
	if w.payload > 0 {
		r.codec = comm.NewRecordCodec[uint64](comm.U64Codec{})
	}
	for p := 0; p < procs; p++ {
		share := make([]comm.Entry[uint64], len(w.parts[0][p]))
		for i, k := range w.parts[0][p] {
			share[i] = comm.Entry[uint64]{Key: k, Proc: uint32(p), Index: uint32(i)}
			if w.payload > 0 {
				share[i].Payload = w.recs[0][p][i].Payload
			}
		}
		r.shares = append(r.shares, share)
	}
	r.spill = w.budgetPerKey > 0
	return r
}

func (w *engineWorkload) layerR(outs []opOutcome, m *metrics) error {
	var reps []*pgxsort.Report
	var facade []float64
	for _, o := range outs {
		if o.traced && !o.failed {
			reps = append(reps, o.rep)
			facade = append(facade, ms(o.wall-o.rep.Total))
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("no traced operation succeeded")
	}
	// The first traced block is one lap of the inputs, so any window of
	// at least traceBlock operations yields the same exact counts.
	reportMetrics(reps, min(w.inputs, len(reps)), m)
	m.set("core.facade_ms", median(facade))
	return nil
}

// pipelineSteps names the six steps, in Report.Steps order: the metric's
// infix and the label /metrics gives pgxsortd_step_seconds_total.
var pipelineSteps = [pgxsort.NumSteps]struct{ metric, label string }{
	{"local_sort", "local-sort"}, {"sampling", "sampling"}, {"splitters", "splitters"},
	{"partition", "partition"}, {"exchange", "send/recv"}, {"final_merge", "final-merge"},
}

// reportMetrics turns the Reports of traced operations into the R
// metrics: medians over all of them for times, and sums over the first
// `exact` (one per rotating input, whatever the window's length) for
// the counts that must repeat bit-for-bit.
func reportMetrics(reps []*pgxsort.Report, exact int, m *metrics) {
	col := func(f func(r *pgxsort.Report) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return median(vals)
	}
	for s, step := range pipelineSteps {
		m.set("core.step_"+step.metric+"_ms", col(func(r *pgxsort.Report) float64 { return ms(r.Steps[s]) }))
	}
	m.set("core.steps_sum_over_total", col(func(r *pgxsort.Report) float64 {
		var sum time.Duration
		for _, d := range r.Steps {
			sum += d
		}
		return float64(sum) / float64(r.Total)
	}))
	m.set("core.merge_overlap_saved_ms", col(func(r *pgxsort.Report) float64 { return ms(r.MergeOverlapSaved) }))
	m.set("core.straggler_ratio", col(func(r *pgxsort.Report) float64 {
		var slowest, total time.Duration
		for _, n := range r.PerNode {
			var sum time.Duration
			for _, d := range n.Steps {
				sum += d
			}
			slowest = max(slowest, sum)
			total += sum
		}
		if total == 0 {
			return 0
		}
		return float64(slowest) * float64(len(r.PerNode)) / float64(total)
	}))
	m.set("transport.send_stall_ms", col(func(r *pgxsort.Report) float64 { return ms(r.SendStall) }))
	m.set("transport.frames_resent", col(func(r *pgxsort.Report) float64 { return float64(r.FramesResent) }))
	m.set("alloc.temp_peak_mb", col(func(r *pgxsort.Report) float64 { return float64(r.TempPeakBytes) / (1 << 20) }))

	var n, wire, msgs, resident, spillW, spillR, samples int64
	imbalance := 0.0
	for _, r := range reps[:exact] {
		n += int64(r.N)
		wire += r.BytesSent
		msgs += r.MsgsSent
		resident += r.ResidentBytes
		spillW += r.SpillBytes
		spillR += r.SpillReads
		samples += int64(r.SamplesPerProc)
		imbalance = max(imbalance, r.LoadImbalance())
	}
	m.set("comm.wire_bytes_per_key", float64(wire)/float64(n))
	m.set("comm.msgs_per_op", float64(msgs)/float64(exact))
	m.set("alloc.resident_bytes_per_key", float64(resident)/float64(n))
	m.set("sample.samples_per_proc", float64(samples)/float64(exact))
	m.set("sample.load_imbalance", imbalance)
	m.set("spill.bytes_per_key", float64(spillW)/float64(n))
	if spillW > 0 {
		m.set("spill.read_amp", float64(spillR)/float64(spillW))
	}
}
