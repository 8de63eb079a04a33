package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/sample"
	"pgxsort/internal/spill"
)

// sortRun is the per-node state of one sort: the node it runs on, the
// sort id multiplexing its traffic, and its measurements.
type sortRun[K cmp.Ordered] struct {
	node   *node[K]
	sortID int32
	opts   Options
	codec  comm.Codec[K]
	src    shareSource[K] // this node's input, which its share's refs index
	// byRef marks a sort of bare keys whose codec frames refs (sortOne
	// decides, for all nodes at once): step 5 sends the share's refs and
	// step 6 builds each entry once, in the result. Otherwise step 5 builds
	// the share's entries once, from the refs, and sends those.
	byRef bool
	// keys marks a job that wants the sorted keys alone (job.keys): step
	// 6 ends this node's part in a key column, not in entries.
	keys   bool
	ctx    context.Context
	spans  *stageSpans // nil outside the scheduler
	cmps   sortCmps[K]
	report NodeReport

	// curStage is the last stage this node entered; a failure surfacing
	// from run is attributed to it (core.Failure.Stage).
	curStage SchedStage
	// pending holds the completed exchange between partitionExchange
	// returning and the merge consuming it, so every exit from run that
	// never reaches the merge — an error at the stage boundary, a panic —
	// discards it (slabs back to the pool, scratch file removed).
	pending exchangeSink[K]
	// runs is this run's step-1 former, which also merges the spilled
	// exchange's runs back. A stage that exceeds Options.MemoryBudget has
	// one scratch file while its runs exist: step 1's is localSort's, the
	// exchange's is its sink's.
	runs runFormer[K]

	// Traffic counters are atomics, not a mutex: sends to different
	// destinations run concurrently on their own goroutines, and the exchange
	// hot path must not serialize them. They fold into the report once
	// the run finishes.
	bytesSent   atomic.Int64
	msgsSent    atomic.Int64
	sampleBytes atomic.Int64
	metaBytes   atomic.Int64
	dataBytes   atomic.Int64

	// retired holds the pooled slabs step 5 sends from — the share's refs,
	// or the entries built from them — whose subslices may still be
	// aliased by in-flight exchange messages; sortOne recycles them only
	// after every node has joined.
	retired share[K]

	// Transport-health baselines captured when the run starts; the
	// endpoint counters are cumulative over the engine's lifetime, so
	// the report carries the delta accrued during this sort.
	stall0      time.Duration
	reconnects0 int64
	resent0     int64
}

// master is the processor that selects splitters (step 3) and reduces
// top-k candidates.
const master = 0

// share is what step 5 sends from: the node's sorted refs, or on a sort
// not by ref the entries they stand for, in the same order.
type share[K cmp.Ordered] struct {
	refs    []lsort.NormRef
	entries []comm.Entry[K]
}

// slice is sh[lo:hi] as the KData message carrying it. (An empty share
// has no slab: its empty slices are refs, which every sink takes as the
// nothing they are.)
func (sh share[K]) slice(lo, hi int) comm.Message[K] {
	if sh.entries != nil {
		return comm.Message[K]{Kind: comm.KData, Entries: sh.entries[lo:hi]}
	}
	return comm.Message[K]{Kind: comm.KData, Refs: sh.refs[lo:hi]}
}

// sortCmps bundles one sort's ordering machinery: the key normalization
// the refs of steps 1 and 6 are built from, and the comparators driving
// sampling, partitioning and the cursor merges. Every comparison goes
// through the normalized image, so the whole pipeline produces one
// consistent total order — for floats that is the IEEE-754 total order,
// which pins the NaN positions `<` cannot order.
type sortCmps[K cmp.Ordered] struct {
	norm func(K) uint64
	// denorm is norm's inverse, nil unless the codec frames refs: what a
	// sort by ref turns a norm back into a key with.
	denorm func(uint64) K
	// inexact marks a monotone, non-injective norm (strings): a ref sort or
	// ref merge leaves equal-norm runs unordered, so steps 1 and 6 finish
	// them under the real key order (lsort.SortEqualNormRefs).
	inexact bool
	// headNorm and headLess are the entry order in the two parts the cursor
	// merges take it in (lsort.NewMergeCursor): an entry's norm, and what
	// orders entries of equal norm — nothing (nil) under an exact norm,
	// whose merge runs in rounds over refs (the loser tree above
	// lsort's round fan-in), the real keys under an inexact one, whose
	// loser tree caches the norm per cursor head.
	headNorm func(e *comm.Entry[K]) uint64
	headLess func(a, b comm.Entry[K]) bool
	keyLess  func(a, b K) bool
}

// cut is a splitter as one node cuts at it (step 4): its key, and tie,
// the origin index up to which the node's equal keys go below it — all
// (MaxInt64) on a node before the splitter's owner or cutting on keys
// alone, none (-1) after it, on the owner those up to its sample.
type cut[K cmp.Ordered] struct {
	key K
	tie int64
}

// comparators resolves the sort's order from the engine's norm. The key
// comparators are norm first, real key order on ties, whichever norm it
// is: equal exact norms are equal keys, so there the second compare never
// decides. The one fact anything branches on is whether the norm is exact.
func (e *Engine[K]) comparators() sortCmps[K] {
	norm := e.norm
	c := sortCmps[K]{
		norm:     norm,
		denorm:   e.denorm,
		inexact:  e.normInexact,
		headNorm: func(en *comm.Entry[K]) uint64 { return norm(en.Key) },
		keyLess: func(a, b K) bool {
			na, nb := norm(a), norm(b)
			return na < nb || na == nb && a < b
		},
	}
	if c.inexact {
		c.headLess = func(a, b comm.Entry[K]) bool { return a.Key < b.Key }
	}
	return c
}

// recycleRetired returns step 5's slabs to the node's pools. Only safe
// once no exchange message can alias them: after every node of the sort
// has joined.
func (s *sortRun[K]) recycleRetired() {
	if s == nil {
		return
	}
	// The send share's payload headers are the caller's own records':
	// a clear here cost 3.5 % of tcp_records_skewed, and is left out.
	s.node.entryPool.PutAsIs(s.retired.entries)
	s.node.refPool.Put(s.retired.refs)
	s.retired = share[K]{}
}

// foldTraffic moves the atomic traffic counters into the report, along
// with the transport-health deltas accrued since the run started.
func (s *sortRun[K]) foldTraffic() {
	s.report.BytesSent = s.bytesSent.Load()
	s.report.MsgsSent = s.msgsSent.Load()
	s.report.SampleBytes = s.sampleBytes.Load()
	s.report.MetaBytes = s.metaBytes.Load()
	s.report.DataBytes = s.dataBytes.Load()
	st := s.node.ep.Stats()
	s.report.SendStall = st.SendStall() - s.stall0
	s.report.Reconnects = st.Reconnects() - s.reconnects0
	s.report.FramesResent = st.FramesResent() - s.resent0
}

// markTransportBaseline snapshots the endpoint's cumulative health
// counters so foldTraffic can report per-sort deltas.
func (s *sortRun[K]) markTransportBaseline() {
	st := s.node.ep.Stats()
	s.stall0 = st.SendStall()
	s.reconnects0 = st.Reconnects()
	s.resent0 = st.FramesResent()
}

// entryBytes is the in-memory size of one entry, used for the resident /
// temporary memory accounting of Figure 11.
func entryBytes[K cmp.Ordered]() int {
	var e comm.Entry[K]
	return int(unsafe.Sizeof(e))
}

// send stamps the sort id, forwards to the transport and accounts the
// traffic against this sort (lock-free: sends to different destinations
// run concurrently, which is also why the failpoint cannot panic).
func (s *sortRun[K]) send(dst int, m comm.Message[K]) error {
	m.SortID = s.sortID
	bytes := int64(m.WireBytes(s.codec)) // sized here, once: the transport reads the same figure
	if err := failpoint.HitNoPanic(fpSend); err != nil {
		return err
	}
	if err := s.node.ep.Send(dst, m); err != nil {
		return err
	}
	s.bytesSent.Add(bytes)
	s.msgsSent.Add(1)
	switch m.Kind {
	case comm.KSamples, comm.KSplitters:
		s.sampleBytes.Add(bytes)
	case comm.KRangeMeta, comm.KControl:
		s.metaBytes.Add(bytes)
	case comm.KData:
		s.dataBytes.Add(bytes)
	}
	return nil
}

// recv pops the next message of the given kind for this sort.
func (s *sortRun[K]) recv(kind comm.Kind) (comm.Message[K], error) {
	m, ok := s.node.mb(s.sortID, kind).pop()
	if !ok {
		if s.ctx.Err() != nil {
			return m, s.ctx.Err()
		}
		if s.node.isCancelled(s.sortID) {
			// A peer node already failed and sortOne tore this sort
			// down; report the teardown, not a fake network death, so
			// root-cause selection can tell noise from cause.
			return m, errSortAborted
		}
		if te := s.node.eng.net.Err(); te != nil {
			// The mesh recorded why it died (e.g. a broken link); chain
			// it so Classify sees Fatal, not an anonymous closure.
			return m, fmt.Errorf("network closed while waiting for %v: %w", kind, te)
		}
		return m, fmt.Errorf("network closed while waiting for %v", kind)
	}
	return m, nil
}

// enterStage marks this node in stage st, the one a failure from here on
// is attributed to, and reports whether the sort is still wanted.
func (s *sortRun[K]) enterStage(st SchedStage) error {
	s.curStage = st
	s.spans.enter(st)
	return s.ctx.Err()
}

// run executes the staged pipeline and returns this node's sorted part.
// The six paper steps map onto four scheduler stages: local sort (CPU),
// sample/splitter agreement (comm), partition+exchange (comm-heavy),
// final merge (CPU). Under the scheduler each stage's span is traced.
func (s *sortRun[K]) run() (_ sortedPart[K], err error) {
	s.markTransportBaseline()
	defer s.foldTraffic()
	// Innermost defer, so it runs before the traffic fold: a stage panic
	// (an injected failpoint or a real bug) becomes this node's error
	// instead of killing the process, and on any exit a
	// completed-but-unmerged exchange gives its slabs back.
	defer func() {
		if r := recover(); r != nil {
			err = recoverPanic(r)
		}
		if s.pending != nil {
			s.pending.discard()
			s.pending = nil
		}
	}()

	if err := s.enterStage(StageLocalSort); err != nil {
		return sortedPart[K]{}, err
	}
	refs, err := s.localSort()
	if err != nil {
		return sortedPart[K]{}, err
	}
	if err := failpoint.Hit(fpLocalSort); err != nil {
		return sortedPart[K]{}, err
	}
	s.spans.leave(StageLocalSort)

	if err := s.enterStage(StageSplitters); err != nil {
		return sortedPart[K]{}, err
	}
	if err := failpoint.Hit(fpSplitters); err != nil {
		return sortedPart[K]{}, err
	}
	cuts, err := s.splitterAgreement(refs)
	if err != nil {
		return sortedPart[K]{}, err
	}
	s.spans.leave(StageSplitters)

	if err := s.enterStage(StageExchange); err != nil {
		return sortedPart[K]{}, err
	}
	if err := failpoint.Hit(fpExchange); err != nil {
		return sortedPart[K]{}, err
	}
	s.pending, err = s.partitionExchange(refs, cuts)
	if err != nil {
		return sortedPart[K]{}, err
	}
	s.spans.leave(StageExchange)

	if err := s.enterStage(StageMerge); err != nil {
		return sortedPart[K]{}, err
	}
	if err := failpoint.Hit(fpMerge); err != nil {
		return sortedPart[K]{}, err
	}
	// Step 6. merge consumes the sink on every path, so it stops being
	// pending before the call.
	sink := s.pending
	s.pending = nil
	t0 := time.Now()
	part, err := sink.merge()
	s.report.Steps[StepFinalMerge] = time.Since(t0)
	if err != nil {
		return sortedPart[K]{}, err
	}
	s.spans.leave(StageMerge)

	s.report.PartSize = part.len()
	s.report.ResidentBytes += part.bytes()
	s.report.TempPeakBytes = s.node.tracker.Peak()
	s.report.SpillBytes = s.runs.spillBytes.Load()
	s.report.SpillReads = s.runs.spillReads.Load()
	return part, nil
}

// step1Chunk is how many of a share's n keys step 1 sorts at a time,
// weighed by what its ref sort holds, 2·refBytes a key (the refs and
// their scratch): all n while that fits Options.MemoryBudget, filling it
// exactly included, else budget / (2·refBytes) (chunkEntries).
func (o Options) step1Chunk(n int) int {
	if o.MemoryBudget > 0 && int64(n)*2*refBytes > o.MemoryBudget {
		return chunkEntries(o.MemoryBudget, refBytes, 1)
	}
	return n
}

// localSort is step 1: the parallel local sort of this node's share,
// run by the shared former (runs.go). The share is the node's keys as
// sorted refs into its input, 16 bytes a key, in a slab of the node's ref
// pool (see retired). A share whose ref sort fits Options.MemoryBudget
// is one chunk, sorted where it ends up. A larger one is formed in
// budget-sized chunks (step1Chunk) that spill to a scratch file of the
// engine's as one run of refs each and merge back over it — the same
// refs, a fraction of the temporary memory.
func (s *sortRun[K]) localSort() ([]lsort.NormRef, error) {
	t0 := time.Now()
	defer func() { s.report.Steps[StepLocalSort] = time.Since(t0) }()
	n := s.src.size()
	chunk := s.opts.step1Chunk(n)
	var scratch *spill.Scratch
	if chunk < n {
		var err error
		if scratch, err = s.node.eng.scratch.Take(); err != nil {
			return nil, err
		}
		// The chunk runs are merged back, their readers closed, before
		// the exchange takes a scratch of its own: it may be this one.
		defer s.node.eng.scratch.Give(scratch)
	}
	refs, err := s.runs.sortRefs(s.src, chunk, uint32(s.node.id), scratch)
	if err != nil {
		return nil, err
	}
	s.retired.refs = refs
	s.report.ResidentBytes = int64(n) * refBytes
	return refs, nil
}

// sampleKeys returns the keys at sample.Regular's positions of the
// share: count (at most len(refs), as sample.Count gives it) keys are
// copied, no entries. Under a norm with an inverse a key is its ref's
// norm turned back, read along the sorted refs; otherwise it is read
// through the source at the ref's Idx, a random access into the input.
func (s *sortRun[K]) sampleKeys(refs []lsort.NormRef, count int) []K {
	keys := make([]K, count)
	if denorm := s.cmps.denorm; denorm != nil {
		for i := range keys {
			keys[i] = denorm(refs[sample.RegularIndex(i, len(refs), count)].Norm)
		}
		return keys
	}
	for i := range keys {
		keys[i] = s.src.key(refs[sample.RegularIndex(i, len(refs), count)].Idx)
	}
	return keys
}

// splitterAgreement is steps 2-3: regular sampling, one buffer of samples
// to the master, master-side splitter selection and broadcast with each
// splitter's owner (sample.SplitterOwners), and this node's cuts.
func (s *sortRun[K]) splitterAgreement(refs []lsort.NormRef) ([]cut[K], error) {
	p := s.opts.Procs
	self := s.node.id

	// ---- Step 2: regular sampling, one buffer of samples to master ----
	t0 := time.Now()
	nsamples := sample.Count(s.opts.BufferBytes, p, s.codec.KeySize(), s.opts.SampleFactor, len(refs))
	keys := s.sampleKeys(refs, nsamples)
	s.report.SamplesSent = len(keys)
	if p > 1 && self != master {
		if err := s.send(master, comm.Message[K]{Kind: comm.KSamples, Keys: keys}); err != nil {
			return nil, err
		}
	}
	s.report.Steps[StepSampling] = time.Since(t0)

	// ---- Step 3: master selects splitters and broadcasts them ----
	t0 = time.Now()
	var splitters []K
	var owners []int64
	if p > 1 {
		if self == master {
			runs := make([][]K, p) // by source: a run's index is its owner
			runs[master] = keys    // master's own samples stay local
			for i := 0; i < p-1; i++ {
				m, err := s.recv(comm.KSamples)
				if err != nil {
					return nil, err
				}
				runs[m.Src] = m.Keys
			}
			splitters = sample.SelectSplitters(runs, p, s.cmps.keyLess)
			if !s.opts.DisableInvestigator {
				owners = sample.SplitterOwners(runs, splitters, s.cmps.keyLess)
			}
			for dst := 0; dst < p; dst++ {
				if dst == master {
					continue
				}
				if err := s.send(dst, comm.Message[K]{Kind: comm.KSplitters, Keys: splitters, Ints: owners}); err != nil {
					return nil, err
				}
			}
		} else {
			m, err := s.recv(comm.KSplitters)
			if err != nil {
				return nil, err
			}
			splitters, owners = m.Keys, m.Ints
		}
		if len(splitters) == 0 {
			// Every processor was empty, so no samples exist anywhere.
			// Any splitters partition nothing correctly; use zero keys.
			splitters = make([]K, p-1)
		}
	}
	cuts := make([]cut[K], len(splitters))
	for j, k := range splitters {
		cuts[j] = cut[K]{key: k, tie: math.MaxInt64}
		if len(owners) == len(splitters) { // else keys alone (Figure 3b)
			switch q, at := int(owners[j]>>32), sample.RegularIndex(int(uint32(owners[j])), len(refs), nsamples); {
			case self > q:
				cuts[j].tie = -1
			case self == q:
				cuts[j].tie = int64(refs[at].Idx)
			}
		}
	}
	s.report.Steps[StepSplitters] = time.Since(t0)
	return cuts, nil
}

// partitionExchange is steps 4-5: binary-search range partitioning, the
// range-metadata broadcast, and the simultaneous all-to-all exchange at
// precomputed offsets into the sink newExchangeSink picks. On error the
// sink is discarded, so a cancelled sort cannot inflate the node's
// tracker, leak slabs or leave a scratch file for later sorts on the same
// engine.
func (s *sortRun[K]) partitionExchange(refs []lsort.NormRef, cuts []cut[K]) (_ exchangeSink[K], err error) {
	n := s.node
	p := s.opts.Procs
	self := n.id

	// ---- Step 4: binary-search range partitioning + metadata bcast ----
	t0 := time.Now()
	// A ref sorts after a cut by norm, then — an inexact norm's equal
	// norms being unequal keys — by key, then by index against the tie.
	// Equal exact norms are equal keys, NaNs too, which < cannot tell.
	norm, inexact, src := s.cmps.norm, s.cmps.inexact, s.src
	ranges := sample.Partition(refs, cuts, nil, func(r lsort.NormRef, c cut[K]) bool {
		if nc := norm(c.key); r.Norm != nc {
			return r.Norm > nc
		}
		if inexact {
			if k := src.key(r.Idx); k < c.key || k > c.key {
				return k > c.key
			}
		}
		return int64(r.Idx) > c.tie
	}, nil, false)
	counts := ranges.Counts()
	meta := make([]int64, p)
	for i, c := range counts {
		meta[i] = int64(c)
	}
	// Broadcast the counts so every receiver can precompute offsets.
	for dst := 0; dst < p; dst++ {
		if dst == self {
			continue
		}
		if err := s.send(dst, comm.Message[K]{Kind: comm.KRangeMeta, Ints: meta}); err != nil {
			return nil, err
		}
	}
	// Collect everyone's counts; perSrc[i] is what source i sends me.
	perSrc := make([]int, p)
	perSrc[self] = counts[self]
	for i := 0; i < p-1; i++ {
		m, err := s.recv(comm.KRangeMeta)
		if err != nil {
			return nil, err
		}
		if len(m.Ints) != p {
			return nil, fmt.Errorf("range metadata from %d has %d counts, want %d", m.Src, len(m.Ints), p)
		}
		perSrc[m.Src] = int(m.Ints[self])
	}
	s.report.Steps[StepPartition] = time.Since(t0)

	// ---- Step 5: simultaneous send and receive at precomputed offsets ----
	t0 = time.Now()
	sh := s.sendShare(refs)
	sink, err := s.newExchangeSink(perSrc)
	if err != nil {
		return nil, err
	}
	// sendDone carries the concurrent sender's result; the cleanup defer
	// drains it if still outstanding, because recycling the assembly
	// while sends are in flight would alias live exchange buffers.
	var sendDone chan error
	defer func() {
		if r := recover(); r != nil {
			err = recoverPanic(r)
		}
		if err != nil {
			if sendDone != nil {
				<-sendDone
			}
			sink.discard()
		}
	}()
	// The local range never touches the network.
	local := sh.slice(ranges.Range(self))
	local.Src = self
	if err := sink.Write(local); err != nil {
		return nil, err
	}
	expectRemote := 0
	for src, c := range perSrc {
		if src != self {
			expectRemote += c
		}
	}

	sendAll := func() error {
		// One sender goroutine per peer, each streaming its range in
		// buffer-sized chunks.
		errs := make([]error, p)
		var wg sync.WaitGroup
		for dst := 0; dst < p; dst++ {
			if dst == self {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[dst] = s.sendRange(dst, sh.slice(ranges.Range(dst)))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	recvAll := func() error {
		got := 0
		for got < expectRemote {
			m, err := s.recv(comm.KData)
			if err != nil {
				return err
			}
			if (m.Refs != nil) != s.byRef {
				// Every node decided alike (sortOne): a peer that did not
				// is a protocol fault, not data to assemble.
				return fmt.Errorf("source %d sent %d entries and %d refs; this node sorts by ref: %v",
					m.Src, len(m.Entries), len(m.Refs), s.byRef)
			}
			if err := sink.Write(m); err != nil {
				return err
			}
			if m.Flags&comm.FlagRunComplete != 0 && !sink.RunComplete(m.Src) {
				// The sender says its run ends here but the metadata
				// counts expect more: a framing/metadata mismatch that
				// must fail loudly, not feed a short run to the merger.
				return fmt.Errorf("source %d signaled run-complete before its %d expected entries arrived",
					m.Src, perSrc[m.Src])
			}
			got += m.DataLen()
			if m.Release != nil {
				// The data was decoded into a transport-owned slab (TCP
				// path) and is copied out now; recycle it.
				m.Release()
			}
		}
		return nil
	}

	if s.opts.SyncExchange {
		// Bulk-synchronous ablation: finish all sends, exchange barrier
		// tokens, then drain the receive queue.
		if err := sendAll(); err != nil {
			return nil, err
		}
		for dst := 0; dst < p; dst++ {
			if dst == self {
				continue
			}
			if err := s.send(dst, comm.Message[K]{Kind: comm.KControl, Ints: []int64{1}}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < p-1; i++ {
			if _, err := s.recv(comm.KControl); err != nil {
				return nil, err
			}
		}
		if err := recvAll(); err != nil {
			return nil, err
		}
	} else {
		// Paper behaviour: send while receiving, no barrier in between.
		sendDone = make(chan error, 1)
		go func() { sendDone <- sendAll() }()
		if err := recvAll(); err != nil {
			return nil, err // cleanup defer drains sendDone
		}
		sendErr := <-sendDone
		sendDone = nil // drained; the cleanup defer must not block on it
		if sendErr != nil {
			return nil, sendErr
		}
	}
	s.report.Steps[StepExchange] = time.Since(t0)
	return sink, nil
}

// sendShare is the share as step 5 sends it: the refs themselves on a
// sort by ref; otherwise the entries they stand for, built once from the
// source into a slab of the node's entry pool, while the refs, read for
// the last time, go back to theirs.
func (s *sortRun[K]) sendShare(refs []lsort.NormRef) share[K] {
	if s.byRef {
		return share[K]{refs: refs}
	}
	entries := s.node.entryPool.Get(len(refs))
	s.src.emit(entries, refs)
	s.retired = share[K]{entries: entries}
	s.node.refPool.Put(refs)
	s.report.ResidentBytes += int64(len(entries)) * int64(entryBytes[K]())
	return share[K]{entries: entries}
}

// sendRange streams one destination's range of the share — the KData
// message r — in buffer-sized chunks: a ref is chunked as an 8-byte key,
// which with its origin is its 16 bytes on the wire.
func (s *sortRun[K]) sendRange(dst int, r comm.Message[K]) error {
	dm := s.node.dm
	if s.byRef {
		return datamgr.Chunks(dm, r.Refs, 8,
			func(chunk []lsort.NormRef, last bool) error {
				return s.sendData(dst, comm.Message[K]{Kind: comm.KData, Refs: chunk}, last)
			})
	}
	// Chunk by measured wire size, not the nominal KeySize: with
	// variable-width keys or payloads the estimate keeps chunks near the
	// buffer budget instead of overshooting it.
	return datamgr.Chunks(dm, r.Entries, comm.EntryWireEstimate(r.Entries, s.codec),
		func(chunk []comm.Entry[K], last bool) error {
			return s.sendData(dst, comm.Message[K]{Kind: comm.KData, Entries: chunk}, last)
		})
}

// sendData sends one chunk of a range, the last one marked.
func (s *sortRun[K]) sendData(dst int, m comm.Message[K], last bool) error {
	if last {
		// Per-source run-complete signal riding the existing framing; the
		// receiver cross-checks it against the metadata-derived counts.
		m.Flags |= comm.FlagRunComplete
	}
	return s.send(dst, m)
}
