package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// Engine is a simulated PGX.D cluster that sorts datasets distributed
// across Procs processors. An engine may run many sorts, sequentially or
// simultaneously; Close releases its network and dispatchers.
type Engine[K cmp.Ordered] struct {
	opts       Options
	codec      comm.Codec[K]
	net        transport.Network[K]
	nodes      []*node[K]
	nextSortID atomic.Int32
	closeOnce  sync.Once
	closeErr   error
	dispatchWG sync.WaitGroup
	// scratch is the free list of scratch files every spilling stage of
	// every sort takes its file from and gives it back to.
	scratch *spill.ScratchPool

	// norm is the order-preserving uint64 normalization of K that steps 1
	// and 6 sort and merge by: the codec's own (comm.KeyNormalizer) or the
	// one comm.NormFor has for K's kind. normInexact marks a monotone but
	// non-injective norm (strings): each ref sort is then finished under
	// the real keys over its equal-norm runs (comparators).
	norm        func(K) uint64
	normInexact bool
	// denorm is norm's inverse when the codec frames refs (comm.RefDenorm):
	// then a sort of bare keys carries its step-1 refs through the
	// exchange to the result instead of building entries to send. nil
	// otherwise.
	denorm func(uint64) K
}

// node is one simulated processor: an endpoint on the network, a buffer
// policy (data manager), a temp-memory tracker and a dispatcher routing
// inbound messages to per-sort mailboxes. It keeps no worker goroutines:
// each step starts the ones it runs on (the task manager of §III).
type node[K cmp.Ordered] struct {
	id      int
	eng     *Engine[K]
	ep      transport.Endpoint[K]
	dm      *datamgr.Manager
	tracker alloc.Tracker
	// entryPool recycles this processor's entry and merge-scratch slabs
	// across sorts, so a pipelined SortMany run reuses buffers instead
	// of reallocating per dataset; refPool does the same for the
	// (norm, node, index) refs steps 1 and 6 sort and merge. Under a
	// payload-carrying codec entryPool clears what comes back (Clear),
	// so an idle engine pins no payload of a Result its caller dropped.
	entryPool *alloc.SlabPool[comm.Entry[K]]
	refPool   alloc.SlabPool[lsort.NormRef]

	mbMu      sync.Mutex
	mbs       map[mbKey]*mailbox[comm.Message[K]]
	closed    bool               // network gone; new mailboxes are born closed
	cancelled map[int32]struct{} // sorts cancelled mid-flight: their mailboxes are born closed
}

type mbKey struct {
	sortID int32
	kind   comm.Kind
}

// NewEngine builds an engine with the given options; codec serializes keys
// on the TCP transport and sizes them for traffic accounting everywhere.
func NewEngine[K cmp.Ordered](opts Options, codec comm.Codec[K]) (*Engine[K], error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	net, err := transport.NewWithConfig(opts.Transport, opts.Procs, codec, opts.TCP)
	if err != nil {
		return nil, err
	}
	e := &Engine[K]{opts: opts, codec: codec, net: net, scratch: spill.NewScratchPool(opts.SpillDir)}
	// A codec advertising its own normalization (comm.KeyNormalizer)
	// takes precedence over the built-in per-kind table. A
	// payload-carrying wrapper (comm.RecordCodec) is unwrapped first: the
	// key codec decides the normalization.
	kc := codec
	if u, ok := codec.(interface{ KeyCodec() comm.Codec[K] }); ok {
		kc = u.KeyCodec()
	}
	if kn, ok := kc.(comm.KeyNormalizer[K]); ok {
		e.norm = kn.Norm
		ix, ok := kc.(comm.InexactNormalizer)
		e.normInexact = ok && ix.NormInexact()
	} else {
		e.norm, e.normInexact = comm.NormFor[K]()
	}
	e.denorm, _ = comm.RefDenorm(codec)
	e.nodes = make([]*node[K], opts.Procs)
	for i := range e.nodes {
		n := &node[K]{
			id:  i,
			eng: e,
			ep:  net.Endpoint(i),
			mbs: make(map[mbKey]*mailbox[comm.Message[K]]),
		}
		n.entryPool = &alloc.SlabPool[comm.Entry[K]]{Clear: carriesPayload(codec)}
		// A sort holds up to three ref slabs of about one size at once —
		// step 1's sorted share beside step 6's two halves — so eight idle
		// slabs a class keep two concurrent sorts hitting the pool.
		n.refPool.Keep = 8
		n.dm = &datamgr.Manager{BufferBytes: opts.BufferBytes, Tracker: &n.tracker}
		e.nodes[i] = n
		e.dispatchWG.Add(1)
		go n.dispatch()
	}
	return e, nil
}

// Options returns the resolved engine configuration.
func (e *Engine[K]) Options() Options { return e.opts }

// Close shuts the cluster down: the transport drains in-flight frames
// (bounded by Options.TCP.DrainTimeout on TCP), listeners and
// connections close, the dispatchers stop and every idle scratch file is
// closed (one an open SpooledResult holds closes with it). In-flight
// sorts fail; Close is idempotent and returns the first real transport
// failure it observed (a broken link, a non-shutdown accept error, or a
// drain timeout).
func (e *Engine[K]) Close() error {
	e.closeOnce.Do(func() {
		e.closeErr = e.net.Close()
		e.dispatchWG.Wait()
		e.scratch.Close()
	})
	return e.closeErr
}

// dispatch routes inbound messages into (sortID, kind) mailboxes until the
// network closes, then closes every mailbox so blocked steps unblock.
func (n *node[K]) dispatch() {
	defer n.eng.dispatchWG.Done()
	for {
		m, ok := n.ep.Recv()
		if !ok {
			n.mbMu.Lock()
			for _, mb := range n.mbs {
				mb.close()
			}
			n.closed = true
			n.mbMu.Unlock()
			return
		}
		n.mb(m.SortID, m.Kind).push(m)
	}
}

// mb returns (creating if needed) the mailbox for one sort and kind.
func (n *node[K]) mb(sortID int32, kind comm.Kind) *mailbox[comm.Message[K]] {
	key := mbKey{sortID, kind}
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	mb, ok := n.mbs[key]
	if !ok {
		mb = newMailbox[comm.Message[K]]()
		if n.closed {
			mb.close()
		}
		if _, dead := n.cancelled[sortID]; dead {
			mb.close()
		}
		n.mbs[key] = mb
	}
	return mb
}

// cancelSort fails every blocked recv of one sort on this node: existing
// mailboxes close, and mailboxes created later for the sort are born
// closed. Other sorts multiplexed on the node are untouched.
func (n *node[K]) cancelSort(sortID int32) {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	if n.cancelled == nil {
		n.cancelled = make(map[int32]struct{})
	}
	n.cancelled[sortID] = struct{}{}
	for key, mb := range n.mbs {
		if key.sortID == sortID {
			mb.close()
		}
	}
}

// isCancelled reports whether cancelSort has been called for sortID on
// this node — recv uses it to tell a deliberate teardown from a dead
// network.
func (n *node[K]) isCancelled(sortID int32) bool {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	_, ok := n.cancelled[sortID]
	return ok
}

// dropSort releases the mailboxes (and cancellation marker) of a
// finished sort.
func (n *node[K]) dropSort(sortID int32) {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	delete(n.cancelled, sortID)
	for key := range n.mbs {
		if key.sortID == sortID {
			delete(n.mbs, key)
		}
	}
}

// job is one dataset in engine-internal form: exactly one of parts (bare
// keys) or recs (key+payload records) is set. Threading jobs instead of
// [][]K through sortOne and the scheduler lets record datasets ride the
// same staged pipeline as key datasets. keys marks a job of bare keys
// that wants the sorted keys alone (Scheduler.RunOne): step 6 ends each
// node's part in a key column, and no entry is built for the result.
type job[K cmp.Ordered] struct {
	parts [][]K
	recs  [][]comm.Record[K]
	keys  bool
}

func (j job[K]) nparts() int {
	if j.recs != nil {
		return len(j.recs)
	}
	return len(j.parts)
}

func (j job[K]) partLen(i int) int {
	if j.recs != nil {
		return len(j.recs[i])
	}
	return len(j.parts[i])
}

// source is processor i's share of the dataset as the step-1 input.
func (j job[K]) source(i int) shareSource[K] {
	if j.recs != nil {
		return &recSource[K]{recs: j.recs[i], node: uint32(i)}
	}
	return &keySource[K]{keys: j.parts[i], node: uint32(i)}
}

// checkJob validates the shape of one distributed dataset.
func (e *Engine[K]) checkJob(j job[K]) error {
	if j.nparts() != e.opts.Procs {
		return fmt.Errorf("core: got %d parts for %d processors", j.nparts(), e.opts.Procs)
	}
	return nil
}

// checkParts validates the shape of one distributed key dataset.
func (e *Engine[K]) checkParts(parts [][]K) error {
	return e.checkJob(job[K]{parts: parts})
}

// carriesPayload is whether entries under c carry a record's payload.
func carriesPayload[K any](c comm.Codec[K]) bool {
	pc, ok := c.(comm.PayloadCarrier)
	return ok && pc.CarriesPayload()
}

// checkRecordCodec gates the record-sorting APIs: without a
// payload-carrying codec (comm.NewRecordCodec) the TCP transport would
// silently drop payloads mid-exchange, and the two transports would
// account different traffic for the same workload.
func (e *Engine[K]) checkRecordCodec() error {
	if carriesPayload(e.codec) {
		return nil
	}
	return fmt.Errorf("core: record sorts need a payload-carrying codec (comm.NewRecordCodec); engine has %T", e.codec)
}

// Sort sorts a dataset that is already distributed: parts[i] is processor
// i's local input. len(parts) must equal Procs. The input slices are not
// modified.
func (e *Engine[K]) Sort(parts [][]K) (*Result[K], error) {
	return e.SortCtx(context.Background(), parts)
}

// SortCtx is Sort with cancellation: when ctx is cancelled mid-flight the
// sort's blocked receives fail and SortCtx returns ctx's error. The
// engine stays usable for subsequent sorts — only this sort's mailboxes
// are torn down.
func (e *Engine[K]) SortCtx(ctx context.Context, parts [][]K) (*Result[K], error) {
	if err := e.checkParts(parts); err != nil {
		return nil, err
	}
	return e.sortOne(ctx, job[K]{parts: parts}, nil)
}

// SortRecords sorts a distributed dataset of key+payload records:
// recs[i] is processor i's local input. Payloads are opaque — they never
// influence the order — and travel with their keys through the whole
// pipeline, so every entry of the result carries its record body. The
// engine's codec must carry payloads (comm.NewRecordCodec).
func (e *Engine[K]) SortRecords(recs [][]comm.Record[K]) (*Result[K], error) {
	return e.SortRecordsCtx(context.Background(), recs)
}

// SortRecordsCtx is SortRecords with cancellation.
func (e *Engine[K]) SortRecordsCtx(ctx context.Context, recs [][]comm.Record[K]) (*Result[K], error) {
	if err := e.checkRecordCodec(); err != nil {
		return nil, err
	}
	j := job[K]{recs: recs}
	if err := e.checkJob(j); err != nil {
		return nil, err
	}
	return e.sortOne(ctx, j, nil)
}

// Blocks is the block distribution every front end uses to hand one flat
// dataset to p processors: part i is data[i·n/p : (i+1)·n/p], contiguous,
// sizes differing by at most one. The parts alias data. Entry provenance
// (Proc, Index) is relative to this split, so callers that must agree on
// provenance — the facade, the CLI, the service — all split here.
func Blocks[T any](data []T, p int) [][]T {
	parts := make([][]T, p)
	for i := range parts {
		parts[i] = data[i*len(data)/p : (i+1)*len(data)/p]
	}
	return parts
}

// SortSlice block-distributes one slice across the processors and sorts it.
func (e *Engine[K]) SortSlice(data []K) (*Result[K], error) {
	return e.Sort(Blocks(data, e.opts.Procs))
}

// SortMany runs several sorts over the same engine, multiplexed by sort
// id — the paper's "sort multiple different data simultaneously" — using
// the scheduler with the engine's default knobs: at most
// Options.MaxInflight datasets in flight. Results are returned in input
// order; every failure is joined into the returned error (see
// Scheduler.Run).
func (e *Engine[K]) SortMany(datasets ...[][]K) ([]*Result[K], error) {
	return e.SortManyWith(context.Background(), SortManyOpts{}, datasets...)
}

// SortManyWith is SortMany with cancellation and explicit scheduling
// knobs (inflight cap, retries).
func (e *Engine[K]) SortManyWith(ctx context.Context, opts SortManyOpts, datasets ...[][]K) ([]*Result[K], error) {
	return NewScheduler(e, opts).Run(ctx, datasets)
}

// SortManyRecords pipelines several record datasets through the scheduler,
// exactly as SortMany does for key datasets.
func (e *Engine[K]) SortManyRecords(datasets ...[][]comm.Record[K]) ([]*Result[K], error) {
	return e.SortManyRecordsWith(context.Background(), SortManyOpts{}, datasets...)
}

// SortManyRecordsWith is SortManyRecords with cancellation and explicit
// scheduling knobs.
func (e *Engine[K]) SortManyRecordsWith(ctx context.Context, opts SortManyOpts, datasets ...[][]comm.Record[K]) ([]*Result[K], error) {
	if err := e.checkRecordCodec(); err != nil {
		return nil, err
	}
	return NewScheduler(e, opts).RunRecords(ctx, datasets)
}

// sortOne runs the staged pipeline on every node for one dataset. spans
// is non-nil only under the scheduler; ctx cancellation tears down this
// sort's mailboxes without touching other sorts on the engine.
func (e *Engine[K]) sortOne(ctx context.Context, j job[K], spans *stageSpans) (*Result[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sortID := e.nextSortID.Add(1)
	p := e.opts.Procs

	// Every node's run is built — and its share checked — before any node
	// starts, so an oversized share fails the job with nothing allocated.
	// Whether the sort goes by ref — step 5 sends the share's refs, not
	// entries built from them — is decided here too, once for all nodes,
	// so every node sends the kind of message every other expects: bare
	// keys under a codec that frames refs. So is whether step 6 ends each
	// part in a key column: a job of bare keys that asked for them alone.
	cmps := e.comparators()
	byRef := j.recs == nil && e.denorm != nil
	keys := j.recs == nil && j.keys
	runs := make([]*sortRun[K], p)
	for i, n := range e.nodes {
		runs[i] = &sortRun[K]{
			node:   n,
			sortID: sortID,
			opts:   e.opts,
			codec:  e.codec,
			src:    j.source(i),
			ctx:    ctx,
			spans:  spans,
			cmps:   cmps,
			byRef:  byRef,
			keys:   keys,
			runs: runFormer[K]{
				ctx: ctx, codec: e.codec, cmps: cmps, workers: e.opts.WorkersPerProc,
				pool: n.entryPool, refPool: &n.refPool, tracker: &n.tracker,
			},
		}
		if err := checkShare(runs[i].src); err != nil {
			return nil, err
		}
	}

	// The watcher must be fully stopped before dropSort below, or a late
	// cancellation could re-mark a sort id whose marker dropSort already
	// deleted, leaking it (and, after int32 wraparound, poisoning a
	// reused id).
	stopWatcher := func() {}
	if ctx.Done() != nil {
		stop := make(chan struct{})
		watcherDone := make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-ctx.Done():
				for _, n := range e.nodes {
					n.cancelSort(sortID)
				}
			case <-stop:
			}
		}()
		stopWatcher = func() {
			close(stop)
			<-watcherDone
		}
	}

	type nodeOut struct {
		part   sortedPart[K]
		report NodeReport
		err    error
	}
	outs := make([]nodeOut, p)
	start := time.Now()
	// abort tears the whole sort down the moment any node fails: peers
	// blocked on messages the failed node will never send observe
	// errSortAborted instead of hanging until engine close. The same
	// mechanism ctx cancellation uses, so other sorts multiplexed on the
	// engine are untouched.
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() {
			for _, n := range e.nodes {
				n.cancelSort(sortID)
			}
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := runs[i]
			outs[i].part, outs[i].err = s.run()
			outs[i].report = s.report
			if outs[i].err != nil {
				abort()
			}
		}(i)
	}
	wg.Wait()
	total := time.Since(start)
	stopWatcher()
	for i := 0; i < p; i++ {
		e.nodes[i].dropSort(sortID)
		// All nodes have joined: no exchange message aliases a retired
		// buffer any more, so the input-entry slabs can be recycled.
		runs[i].recycleRetired()
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Root-cause selection: abort echoes (errSortAborted) are teardown
	// noise, and among real errors the most actionable class wins — a
	// Fatal link death outranks the Transient "network closed" it causes
	// on other nodes. The winner is wrapped as a classified *Failure.
	rootIdx := -1
	for i, o := range outs {
		if o.err == nil || errors.Is(o.err, errSortAborted) {
			continue
		}
		if rootIdx == -1 || classPriority(Classify(o.err)) > classPriority(Classify(outs[rootIdx].err)) {
			rootIdx = i
		}
	}
	if rootIdx == -1 {
		for i, o := range outs {
			if o.err != nil { // abort echoes only: keep the first
				rootIdx = i
				break
			}
		}
	}
	if rootIdx >= 0 {
		o := outs[rootIdx]
		return nil, &Failure{Class: Classify(o.err), Stage: runs[rootIdx].curStage, Node: rootIdx, Err: o.err}
	}

	rep := Report{
		Procs:   p,
		Workers: e.opts.WorkersPerProc,
		Total:   total,
		PerNode: make([]NodeReport, p),
	}
	for i, o := range outs {
		nr := o.report
		rep.PerNode[i] = nr
		rep.N += j.partLen(i)
		for s := Step(0); s < NumSteps; s++ {
			if nr.Steps[s] > rep.Steps[s] {
				rep.Steps[s] = nr.Steps[s]
			}
		}
		rep.BytesSent += nr.BytesSent
		rep.MsgsSent += nr.MsgsSent
		rep.SampleBytes += nr.SampleBytes
		rep.MetaBytes += nr.MetaBytes
		rep.DataBytes += nr.DataBytes
		if nr.TempPeakBytes > rep.TempPeakBytes {
			rep.TempPeakBytes = nr.TempPeakBytes
		}
		rep.ResidentBytes += nr.ResidentBytes
		rep.SpillBytes += nr.SpillBytes
		rep.SpillReads += nr.SpillReads
		if nr.SamplesSent > rep.SamplesPerProc {
			rep.SamplesPerProc = nr.SamplesSent
		}
		if nr.SendStall > rep.SendStall {
			rep.SendStall = nr.SendStall
		}
		rep.Reconnects += nr.Reconnects
		rep.FramesResent += nr.FramesResent
	}
	rep.CommTime = rep.Steps[StepSampling] + rep.Steps[StepSplitters] + rep.Steps[StepExchange]
	rep.MergePath = "balanced"
	if rep.SpillBytes > 0 {
		// At least one node ran out-of-core under Options.MemoryBudget.
		rep.MergePath += "+spill"
	}
	rep.Sched = spans.snapshot()

	res := &Result[K]{Report: rep, norm: e.norm}
	if keys {
		res.keys = make([][]K, p)
		for i, o := range outs {
			res.keys[i] = o.part.keys
		}
		return res, nil
	}
	res.Parts = make([][]comm.Entry[K], p)
	for i, o := range outs {
		res.Parts[i] = o.part.entries
	}
	return res, nil
}
