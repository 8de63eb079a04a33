package core

import (
	"fmt"
	"strings"
	"time"
)

// Step identifies one of the six pipeline steps for per-step timing
// (Figure 7).
type Step int

const (
	// StepLocalSort is step 1: the parallel radix of each share's refs.
	StepLocalSort Step = iota
	// StepSampling is step 2: regular sampling and sending to the master.
	StepSampling
	// StepSplitters is step 3: master-side splitter selection and
	// broadcast (non-masters: waiting for the broadcast).
	StepSplitters
	// StepPartition is step 4: binary-search range determination plus the
	// range-metadata broadcast.
	StepPartition
	// StepExchange is step 5: the simultaneous send/receive of data.
	StepExchange
	// StepFinalMerge is step 6: merging received runs.
	StepFinalMerge

	// NumSteps is the number of pipeline steps.
	NumSteps = 6
)

// String returns the step label used in figures.
func (s Step) String() string {
	switch s {
	case StepLocalSort:
		return "local-sort"
	case StepSampling:
		return "sampling"
	case StepSplitters:
		return "splitters"
	case StepPartition:
		return "partition"
	case StepExchange:
		return "send/recv"
	case StepFinalMerge:
		return "final-merge"
	default:
		return fmt.Sprintf("Step(%d)", int(s))
	}
}

// SchedStage identifies one of the scheduler's pipeline stages. Stages
// group the six steps by resource: two CPU-bound stages around two
// communication stages. The scheduler traces each one's span.
type SchedStage int

const (
	// StageLocalSort is the CPU-bound local sort (step 1).
	StageLocalSort SchedStage = iota
	// StageSplitters is the sample/splitter agreement (steps 2-3): small
	// messages, latency-bound.
	StageSplitters
	// StageExchange is the partition + all-to-all exchange (steps 4-5):
	// the communication-heavy stage.
	StageExchange
	// StageMerge is the CPU-bound merge of the received runs (step 6).
	StageMerge

	// NumSchedStages is the number of scheduler stages.
	NumSchedStages = 4
)

// String returns the stage label used in traces and tables.
func (s SchedStage) String() string {
	switch s {
	case StageLocalSort:
		return "local-sort"
	case StageSplitters:
		return "splitters"
	case StageExchange:
		return "exchange"
	case StageMerge:
		return "merge"
	default:
		return fmt.Sprintf("SchedStage(%d)", int(s))
	}
}

// SchedTrace describes one sort's passage through the scheduler. It is the
// zero value for plain Sort calls. All offsets are relative to the batch
// epoch (the SortMany call), so overlap between datasets is directly
// readable.
type SchedTrace struct {
	// Pipelined is true when the scheduler ran this sort.
	Pipelined bool
	// AdmitWait is how long the dataset waited for an admission slot.
	AdmitWait time.Duration
	// StageStart/StageEnd bracket each stage: offset from the batch epoch
	// when the first node entered and when the last node left.
	StageStart [NumSchedStages]time.Duration
	StageEnd   [NumSchedStages]time.Duration
}

// String renders the trace as one line per stage.
func (t *SchedTrace) String() string {
	if !t.Pipelined {
		return "unscheduled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "admit-wait %v\n", t.AdmitWait)
	for s := SchedStage(0); s < NumSchedStages; s++ {
		fmt.Fprintf(&b, "  %-10s [%8v .. %8v]\n", s, t.StageStart[s], t.StageEnd[s])
	}
	return b.String()
}

// NodeReport holds one processor's measurements for one sort.
type NodeReport struct {
	// Steps holds the wall time this node spent in each pipeline step.
	Steps [NumSteps]time.Duration
	// PartSize is the number of entries this node holds after the sort.
	PartSize int
	// SamplesSent is the number of samples this node sent to the master.
	SamplesSent int
	// BytesSent / MsgsSent count this sort's outgoing traffic from this
	// node (logical payload bytes).
	BytesSent int64
	MsgsSent  int64
	// SampleBytes / MetaBytes / DataBytes split BytesSent by message kind.
	SampleBytes int64
	MetaBytes   int64
	DataBytes   int64
	// TempPeakBytes is the high-water mark of temporary allocations
	// (merge scratch, assembly staging) on this node during the sort.
	TempPeakBytes int64
	// ResidentBytes is the entry storage this node holds (input entries +
	// result), the analogue of RSS in Figure 11.
	ResidentBytes int64
	// SpillBytes / SpillReads count the bytes this node wrote to and read
	// back from scratch files while honouring Options.MemoryBudget —
	// block bytes, which is all a scratch file holds. Zero when the whole
	// sort fit the budget. SpillReads/SpillBytes is the node's spill read
	// amplification: 1.0 means every spilled byte was read back exactly
	// once.
	SpillBytes int64
	SpillReads int64
	// SendStall is the time this node's sends spent blocked on full
	// per-peer windows during this sort — the slow-peer backpressure
	// signal. Zero on the in-process transport. The counters are
	// per-endpoint deltas over the sort's lifetime, so when sorts overlap
	// on one engine (pipelined SortMany) trouble that accrues during the
	// overlap is counted by every sort in flight; sum per-sort values
	// with that in mind.
	SendStall time.Duration
	// Reconnects / FramesResent count connections this node's outbound
	// links re-established (and frames they retransmitted) during this
	// sort. Zero outside fault injection and real network trouble.
	Reconnects   int64
	FramesResent int64
}

// Report aggregates a distributed sort run, providing every measurement
// the paper's figures need.
type Report struct {
	Procs   int
	Workers int
	N       int
	// Steps is the per-step critical path: max across nodes (Figure 7).
	Steps [NumSteps]time.Duration
	// Total is the wall time of the whole sort (Figures 5, 6, 8, 9).
	Total time.Duration
	// PerNode holds each processor's measurements (Table II, Figure 10).
	PerNode []NodeReport
	// BytesSent etc. total the per-node traffic (Figure 9).
	BytesSent   int64
	MsgsSent    int64
	SampleBytes int64
	MetaBytes   int64
	DataBytes   int64
	// CommTime is the critical-path duration of the exchange step plus
	// sampling/broadcast waits — the paper's "communication overhead".
	CommTime time.Duration
	// TempPeakBytes is the max per-node temporary-memory peak; Resident
	// totals per-node entry storage (Figure 11).
	TempPeakBytes int64
	ResidentBytes int64
	// SpillBytes / SpillReads total the spill traffic across nodes (block
	// bytes written to and read back from scratch files under
	// Options.MemoryBudget). Zero means the sort ran entirely in memory.
	SpillBytes int64
	SpillReads int64
	// SamplesPerProc is the per-processor sample count used (Figure 9/10).
	SamplesPerProc int
	// Attempts is how many times the scheduler ran this job before it
	// succeeded: 1 is a clean run, 2+ means RetryPolicy re-ran Transient
	// failures, 0 means the sort ran outside a scheduler (plain Sort).
	Attempts int
	// SendStall is the worst per-node slow-peer stall (time sends spent
	// blocked on full transport windows); Reconnects and FramesResent
	// total the connections re-established and frames retransmitted
	// across nodes. All zero on a healthy in-process run. Overlapping
	// SortMany sorts each count trouble that accrues while they are in
	// flight (see NodeReport.SendStall).
	SendStall    time.Duration
	Reconnects   int64
	FramesResent int64
	// MergePath is how step 6 ran: "balanced" (the resident balanced
	// merging handler), "balanced+spill" when at least one node ran
	// out-of-core under Options.MemoryBudget, or "spooled-kway+spill" for
	// SortSpooled.
	MergePath string
	// MergeOverlapSaved is always zero; retained because
	// benchmark/engine.go reads it, to be dropped together with that
	// metric by the next benchmark PR.
	MergeOverlapSaved time.Duration
	// Sched describes this sort's passage through the SortMany scheduler
	// (zero value for plain Sort calls).
	Sched SchedTrace
}

// Snapshot returns a deep copy of the report — PerNode is the only
// reference field — so long-lived aggregators (the pgxsortd metrics and
// /debug/jobs scrapes) can hold reports without aliasing slices owned by
// a Result that may still be in a handler's hands.
func (r *Report) Snapshot() Report {
	cp := *r
	cp.PerNode = append([]NodeReport(nil), r.PerNode...)
	return cp
}

// PartSizes returns the per-processor result sizes (Table II).
func (r *Report) PartSizes() []int {
	out := make([]int, len(r.PerNode))
	for i, n := range r.PerNode {
		out[i] = n.PartSize
	}
	return out
}

// LoadImbalance returns max/avg part size, 1.0 meaning perfectly balanced.
func (r *Report) LoadImbalance() float64 {
	if len(r.PerNode) == 0 || r.N == 0 {
		return 1
	}
	maxPart := 0
	for _, n := range r.PerNode {
		if n.PartSize > maxPart {
			maxPart = n.PartSize
		}
	}
	avg := float64(r.N) / float64(len(r.PerNode))
	if avg == 0 {
		return 1
	}
	return float64(maxPart) / avg
}

// MinMaxPart returns the smallest and largest per-processor result sizes
// (Figure 10).
func (r *Report) MinMaxPart() (minSize, maxSize int) {
	if len(r.PerNode) == 0 {
		return 0, 0
	}
	minSize, maxSize = r.PerNode[0].PartSize, r.PerNode[0].PartSize
	for _, n := range r.PerNode[1:] {
		if n.PartSize < minSize {
			minSize = n.PartSize
		}
		if n.PartSize > maxSize {
			maxSize = n.PartSize
		}
	}
	return minSize, maxSize
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sorted %d entries on %d procs x %d workers in %v", r.N, r.Procs, r.Workers, r.Total)
	if r.MergePath != "" {
		fmt.Fprintf(&b, " (merge: %s)", r.MergePath)
	}
	b.WriteByte('\n')
	for s := Step(0); s < NumSteps; s++ {
		fmt.Fprintf(&b, "  %-12s %v\n", s.String(), r.Steps[s])
	}
	fmt.Fprintf(&b, "  comm: %d msgs, %d bytes (samples %d, meta %d, data %d)\n",
		r.MsgsSent, r.BytesSent, r.SampleBytes, r.MetaBytes, r.DataBytes)
	fmt.Fprintf(&b, "  memory: %d resident, %d temp peak\n", r.ResidentBytes, r.TempPeakBytes)
	if r.SpillBytes > 0 {
		fmt.Fprintf(&b, "  spill: %d bytes written, %d read back (%.2fx read amplification)\n",
			r.SpillBytes, r.SpillReads, float64(r.SpillReads)/float64(r.SpillBytes))
	}
	if r.SendStall > 0 || r.Reconnects > 0 {
		fmt.Fprintf(&b, "  transport: %v worst send stall, %d reconnects, %d frames resent\n",
			r.SendStall, r.Reconnects, r.FramesResent)
	}
	fmt.Fprintf(&b, "  balance: %.3f (max/avg), parts %v\n", r.LoadImbalance(), r.PartSizes())
	if r.Sched.Pipelined {
		fmt.Fprintf(&b, "  sched: %s", r.Sched.String())
	}
	return b.String()
}
