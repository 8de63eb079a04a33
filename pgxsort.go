// Package pgxsort is a load-balanced parallel and distributed sorting
// library, a from-scratch Go reproduction of "A Load-Balanced Parallel and
// Distributed Sorting Algorithm Implemented with PGX.D" (Khatami et al.,
// IPDPS workshops 2017, arXiv:1611.00463).
//
// The library simulates a PGX.D-style cluster in one process: p
// processors, each running its steps on goroutines of their own (at most
// WorkersPerProc per step that splits its work), 256KB communication
// buffers and a network endpoint (in-process channels or real TCP loopback), and
// sorts distributed data with the paper's six-step sample sort:
//
//  1. parallel local sort — one radix over (norm, index) refs of the
//     keys, every ordered kind having an order-preserving uint64 norm,
//     each pass split into equal slices among the workers, so no merge
//     follows (in budget-sized chunks through spill files when a
//     processor's share exceeds Options.MemoryBudget)
//  2. regular sampling (one 256KB/p buffer of samples to the master)
//  3. master splitter selection and broadcast
//  4. binary-search range partitioning at splitters of exact rank in
//     (key, processor, index) order, which keeps skewed data balanced
//     and equal keys in input order
//  5. asynchronous all-to-all exchange at precomputed offsets
//  6. merge of the received runs with the balanced merging handler,
//     after the exchange barrier (streamed back from spill files when the
//     runs exceed Options.MemoryBudget)
//
// Every sorted entry carries its origin (processor, index); results
// support distributed binary search, top-k retrieval and origin lookup;
// and several datasets can be sorted simultaneously on one cluster.
//
// Quickstart:
//
//	keys := []uint64{9, 3, 7, 1}
//	sorted, report, err := pgxsort.Sort(keys, pgxsort.Options{Procs: 4})
//
// For repeated sorts, keep a Cluster:
//
//	c, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: 8})
//	defer c.Close()
//	res, err := c.SortSlice(keys)
package pgxsort

import (
	"cmp"
	"fmt"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/transport"
)

// Re-exported configuration and result types. See the internal/core docs
// for field-level details.
type (
	// Options configures a Cluster; the zero value reproduces the
	// paper's configuration (256KB buffers, sample factor X, balanced
	// merging, investigator on, asynchronous exchange).
	Options = core.Options
	// Report holds the measurements of one distributed sort.
	Report = core.Report
	// NodeReport holds one processor's measurements.
	NodeReport = core.NodeReport
	// Step identifies a pipeline step in Report.Steps.
	Step = core.Step
	// SortManyOpts configures the pipelined multi-dataset scheduler
	// behind SortMany/SortManyWith: inflight cap, admission order, or
	// the naive unbounded baseline.
	SortManyOpts = core.SortManyOpts
	// AdmitOrder selects the scheduler's admission order.
	AdmitOrder = core.AdmitOrder
	// SchedStage identifies a scheduler stage in SchedTrace/StageWait.
	SchedStage = core.SchedStage
	// SchedTrace records one sort's passage through the scheduler
	// (Report.Sched): admission wait, per-stage gate waits, and stage
	// spans relative to the batch epoch, so dataset overlap is readable.
	SchedTrace = core.SchedTrace
	// TransportConfig shapes the TCP transport for real clusters
	// (Options.TCP): per-node listen/dial addresses, connect timeout,
	// retry backoff, read/write/ack deadlines, max frame size and the
	// bounded per-link send window. The zero value is the loopback
	// default.
	TransportConfig = transport.Config

	// Entry is a sorted record: key plus origin processor and index (and,
	// for record sorts, the opaque payload that travelled with the key).
	Entry[K cmp.Ordered] = comm.Entry[K]
	// Record is one key+payload input row for the record-sorting APIs
	// (Cluster.SortRecords / SortManyRecords). The payload is opaque: it
	// never influences the order and rides with its key end to end.
	Record[K cmp.Ordered] = comm.Record[K]
	// Result is a globally sorted distributed dataset.
	Result[K cmp.Ordered] = core.Result[K]
	// PartRange describes one processor's key range after sorting.
	PartRange[K cmp.Ordered] = core.PartRange[K]
	// Codec serializes keys for the TCP transport.
	Codec[K any] = comm.Codec[K]
	// TopKResult is the outcome of a distributed top-k/bottom-k query.
	TopKResult[K cmp.Ordered] = core.TopKResult[K]
)

// ParseMemBudget parses the CLIs' -mem-budget flag: a byte count with an
// optional K/M/G suffix ("64M", "2G", "1048576"; empty or "0" = no
// budget). The parsed value goes into Options.MemoryBudget, which caps
// each node's temporary memory and spills sorted runs to scratch files
// (internal/spill) once exceeded — see Report.SpillBytes/SpillReads.
func ParseMemBudget(s string) (int64, error) { return core.ParseMemBudget(s) }

// Transports.
const (
	TransportChan = transport.KindChan
	TransportTCP  = transport.KindTCP
)

// Pipeline steps (Report.Steps indices).
const (
	StepLocalSort  = core.StepLocalSort
	StepSampling   = core.StepSampling
	StepSplitters  = core.StepSplitters
	StepPartition  = core.StepPartition
	StepExchange   = core.StepExchange
	StepFinalMerge = core.StepFinalMerge
	NumSteps       = core.NumSteps
)

// Scheduler stages (SchedTrace / NodeReport.StageWait indices).
const (
	StageLocalSort = core.StageLocalSort
	StageSplitters = core.StageSplitters
	StageExchange  = core.StageExchange
	StageMerge     = core.StageMerge
	NumSchedStages = core.NumSchedStages
)

// SortMany admission orders.
const (
	OrderInput         = core.OrderInput
	OrderSmallestFirst = core.OrderSmallestFirst
)

// DefaultMaxInflight is the scheduler's default admission cap.
const DefaultMaxInflight = core.DefaultMaxInflight

// Built-in key codecs for the TCP transport. StringCodec is
// variable-width (length-prefixed) and ordered through its inexact 8-byte
// prefix normalization; see comm.StringCodec.
var (
	Uint64Codec  = comm.U64Codec{}
	Int64Codec   = comm.I64Codec{}
	Float64Codec = comm.F64Codec{}
	Uint32Codec  = comm.U32Codec{}
	StringCodec  = comm.StringCodec{}
)

// NewRecordCodec wraps a key codec so entries carry their payloads on the
// wire — required for SortRecords/SortManyRecords (on every transport, so
// both transports account identical traffic).
func NewRecordCodec[K cmp.Ordered](key Codec[K]) Codec[K] {
	return comm.NewRecordCodec[K](key)
}

// CodecFor returns the built-in codec for K (uint64, int64, float64,
// uint32, string). Other key types need an explicit codec for the TCP
// transport; on the channel transport any fixed estimate works because
// nothing is serialized.
func CodecFor[K cmp.Ordered]() (Codec[K], error) {
	var k K
	switch any(k).(type) {
	case uint64:
		return any(comm.U64Codec{}).(Codec[K]), nil
	case int64:
		return any(comm.I64Codec{}).(Codec[K]), nil
	case float64:
		return any(comm.F64Codec{}).(Codec[K]), nil
	case uint32:
		return any(comm.U32Codec{}).(Codec[K]), nil
	case string:
		return any(comm.StringCodec{}).(Codec[K]), nil
	default:
		return nil, fmt.Errorf("pgxsort: no built-in codec for %T; provide one with NewClusterWithCodec", k)
	}
}

// Cluster is a simulated PGX.D cluster ready to sort distributed data.
// It embeds the engine; see Sort, SortCtx, SortSlice, SortMany,
// SortManyWith and Close. SortMany pipelines its datasets through a
// staged scheduler: at most Options.MaxInflight datasets in flight and
// one dataset per communication stage at a time, so one dataset's
// exchange overlaps another's local compute.
type Cluster[K cmp.Ordered] struct {
	*core.Engine[K]
}

// NewCluster builds a cluster using the built-in codec for K.
func NewCluster[K cmp.Ordered](opts Options) (*Cluster[K], error) {
	codec, err := CodecFor[K]()
	if err != nil {
		return nil, err
	}
	return NewClusterWithCodec[K](opts, codec)
}

// NewRecordCluster builds a cluster for key+payload record sorts: the
// built-in codec for K wrapped so payloads ride the wire. Use
// SortRecords/SortManyRecords on the result; plain key sorts work too.
func NewRecordCluster[K cmp.Ordered](opts Options) (*Cluster[K], error) {
	codec, err := CodecFor[K]()
	if err != nil {
		return nil, err
	}
	return NewClusterWithCodec[K](opts, NewRecordCodec[K](codec))
}

// NewClusterWithCodec builds a cluster with an explicit key codec
// (required for custom key types on the TCP transport).
func NewClusterWithCodec[K cmp.Ordered](opts Options, codec Codec[K]) (*Cluster[K], error) {
	eng, err := core.NewEngine[K](opts, codec)
	if err != nil {
		return nil, err
	}
	return &Cluster[K]{Engine: eng}, nil
}

// Sort is the one-shot convenience API: it block-distributes data across
// Options.Procs simulated processors, sorts, and returns the globally
// sorted keys plus the run's report. For repeated sorts build a Cluster.
func Sort[K cmp.Ordered](data []K, opts Options) ([]K, *Report, error) {
	res, err := SortDistributed(core.Blocks(data, resolvedProcs(opts)), opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Keys(), &res.Report, nil
}

// SortDistributed sorts data that is already distributed: parts[i] is
// processor i's local input (len(parts) fixes the processor count,
// overriding Options.Procs). The full Result exposes origins, search and
// top-k.
func SortDistributed[K cmp.Ordered](parts [][]K, opts Options) (*Result[K], error) {
	opts.Procs = len(parts)
	c, err := NewCluster[K](opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Sort(parts)
}

// TopK returns the k largest keys of data (descending, with origins)
// using the distributed top-k query — each simulated processor ships only
// k candidates, not its whole shard.
func TopK[K cmp.Ordered](data []K, k int, opts Options) (*TopKResult[K], error) {
	p := resolvedProcs(opts)
	opts.Procs = p
	c, err := NewCluster[K](opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Engine.TopK(core.Blocks(data, p), k)
}

func resolvedProcs(opts Options) int {
	if opts.Procs > 0 {
		return opts.Procs
	}
	return 4 // core's default
}
