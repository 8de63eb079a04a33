package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/keyio"
	"pgxsort/internal/lsort"
	"pgxsort/internal/sample"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// replayReps is how many times each layer call is replayed; the metric
// is the median span.
const replayReps = 5

// replayInput is what a workload hands the replay: its first input as
// the flat key slice, as the p per-node shares the engine would form
// from it, and (service workloads) as the request body.
type replayInput struct {
	flat      []uint64
	shares    [][]comm.Entry[uint64]
	codec     comm.Codec[uint64]
	transport string
	body      []byte // nil for engine workloads
	spill     bool   // the workload's pipeline reaches the spill tier
}

type entry = comm.Entry[uint64]

func entryLess(a, b entry) bool { return a.Key < b.Key }
func entryKey(e entry) uint64   { return e.Key }
func keyLess(a, b uint64) bool  { return a < b }

// keep is a sink the replayed calls assign to, so none is dead code.
var keep any

// replay calls each layer's exported functions directly, in pipeline
// order, on node 0's share of the workload's first input, each call
// wrapped in a span under one root span per repetition. It sets the
// source-S metrics from the median span of each name. Work between the
// calls (cloning what a call will overwrite) is the root's self time.
func replay(in replayInput, tmp string, tr *tracer, m *metrics) error {
	share0 := in.shares[0]
	n := len(share0)
	if n == 0 {
		return fmt.Errorf("replay: empty share")
	}
	// Every node's share sorted once, untimed: the splitters, the
	// partition and the merges need the whole picture.
	sorted := make([][]entry, len(in.shares))
	for p, s := range in.shares {
		sorted[p] = slices.Clone(s)
		slices.SortStableFunc(sorted[p], func(a, b entry) int { return cmp.Compare(a.Key, b.Key) })
	}
	scratch := make([]entry, n)
	work := make([]entry, n)
	flat0 := make([]uint64, n)
	flatScratch := make([]uint64, n)
	var wire []byte
	// runs: node 0's sorted share dealt into p sorted runs, the shape of
	// what step 6 merges.
	runs := make([][]entry, procs)
	for i, e := range sorted[0] {
		runs[i%procs] = append(runs[i%procs], e)
	}
	bounds := make([]int, procs+1)
	for p, r := range runs {
		bounds[p+1] = bounds[p] + len(r)
	}
	dm := &datamgr.Manager{}
	perSrc := make([]int, procs)
	for p, r := range runs {
		perSrc[p] = len(r)
	}

	for rep := 0; rep < replayReps; rep++ {
		root := tr.begin("replay", -1, rep)
		call := func(name string, fn func()) {
			id := tr.begin(name, root, rep)
			fn()
			tr.end(id)
		}

		// lsort: the local sort at both entry widths, then the merges.
		copy(work, share0)
		call("lsort.ParallelRadixSort", func() {
			lsort.ParallelRadixSort(work, scratch, entryKey, 64, entryLess, workers)
		})
		for i, e := range share0 {
			flat0[i] = e.Key
		}
		call("lsort.RadixSort.flat", func() {
			lsort.RadixSort(flat0, flatScratch, func(k uint64) uint64 { return k }, 64)
		})
		call("lsort.KWayMerge", func() { keep = lsort.KWayMerge(runs, entryLess) })
		work = work[:0]
		for _, r := range runs {
			work = append(work, r...)
		}
		call("lsort.MergeAdjacentRunsOwned", func() {
			keep, _ = lsort.MergeAdjacentRunsOwned(work, scratch, bounds, entryLess, true)
		})
		cursors := make([]lsort.Cursor[entry], procs)
		for p, r := range runs {
			cursors[p] = lsort.NewSliceCursor(r)
		}
		var merr error
		call("lsort.MergeCursors", func() { _, merr = lsort.MergeCursors(scratch, cursors, entryLess) })
		if merr != nil {
			return merr
		}

		// sample: what every node sends the master, the master's choice,
		// and node 0's partition of its sorted share.
		var splitters []uint64
		call("sample.select", func() {
			sampleRuns := make([][]uint64, len(sorted))
			for p, s := range sorted {
				cnt := sample.Count(sample.DefaultBufferBytes, procs, in.codec.KeySize(), 1.0, len(s))
				picked := sample.Regular(s, cnt)
				sampleRuns[p] = make([]uint64, len(picked))
				for i, e := range picked {
					sampleRuns[p][i] = e.Key
				}
			}
			splitters = sample.SelectSplitters(sampleRuns, procs, keyLess)
		})
		call("sample.Partition", func() {
			keep = sample.Partition(sorted[0], splitters, keyLess,
				func(e entry, s uint64) bool { return e.Key > s },
				func(e entry, s uint64) bool { return e.Key < s }, true)
		})

		// comm: the workload's codec over the share.
		call("comm.EncodeEntries", func() { wire = comm.EncodeEntries(wire[:0], sorted[0], in.codec) })
		var derr error
		call("comm.DecodeEntriesSlab", func() { keep, _, derr = comm.DecodeEntriesSlab(wire, n, in.codec, nil) })
		if derr != nil {
			return derr
		}

		// datamgr: chunking on the send side, assembly on the receive side.
		call("datamgr.Chunks", func() {
			datamgr.Chunks(dm, sorted[0], in.codec.KeySize(), func(chunk []entry, last bool) error {
				keep = chunk
				return nil
			})
		})
		asm := datamgr.NewAssemblyBuf[uint64](dm, perSrc, 40, scratch)
		var werr error
		call("datamgr.Assembly.Write", func() {
			for p, r := range runs {
				err := datamgr.Chunks(dm, r, in.codec.KeySize(), func(chunk []entry, last bool) error {
					return asm.Write(p, chunk)
				})
				if err != nil {
					werr = err
				}
			}
		})
		if werr != nil {
			return werr
		}
		tr.end(root)
	}

	nsPerKey := func(span string) float64 { return median(tr.durations(span)) / float64(n) }
	m.set("lsort.radix_entry_ns_per_key", nsPerKey("lsort.ParallelRadixSort"))
	m.set("lsort.radix_flat_ns_per_key", nsPerKey("lsort.RadixSort.flat"))
	m.set("lsort.kway_merge_ns_per_key", nsPerKey("lsort.KWayMerge"))
	m.set("lsort.balanced_merge_ns_per_key", nsPerKey("lsort.MergeAdjacentRunsOwned"))
	m.set("lsort.cursor_merge_ns_per_key", nsPerKey("lsort.MergeCursors"))
	m.set("sample.select_us", median(tr.durations("sample.select"))/1e3)
	m.set("sample.partition_us", median(tr.durations("sample.Partition"))/1e3)
	m.set("comm.encode_ns_per_key", nsPerKey("comm.EncodeEntries"))
	m.set("comm.decode_ns_per_key", nsPerKey("comm.DecodeEntriesSlab"))
	m.set("datamgr.chunks_ns_per_key", nsPerKey("datamgr.Chunks"))
	m.set("datamgr.assembly_ns_per_key", nsPerKey("datamgr.Assembly.Write"))

	if err := replayTransport(in, sorted, tr, m); err != nil {
		return err
	}
	if in.spill {
		if err := replaySpill(in, sorted[0], tmp, tr, m); err != nil {
			return err
		}
	}
	if in.body != nil {
		if err := replayKeyio(in, tr, m); err != nil {
			return err
		}
	}
	replayRef(in, tr, m)
	return nil
}

// replayTransport moves the workload's exchange volume through the
// workload's transport: every endpoint sends each peer a 1/p slice of
// its sorted share in buffer-sized messages while draining its own
// inbox. A 1-entry ping-pong then prices one message start-up.
func replayTransport(in replayInput, sorted [][]entry, tr *tracer, m *metrics) error {
	net, err := transport.New[uint64](in.transport, procs, in.codec)
	if err != nil {
		return err
	}
	defer net.Close()
	dm := &datamgr.Manager{}
	var volume int64
	expect := make([]int, procs) // entries each endpoint receives
	for src, s := range sorted {
		for dst := 0; dst < procs; dst++ {
			if dst != src {
				part := s[dst*len(s)/procs : (dst+1)*len(s)/procs]
				expect[dst] += len(part)
				volume += int64(comm.EntriesWireBytes(part, in.codec))
			}
		}
	}
	for rep := 0; rep < replayReps; rep++ {
		errs := make(chan error, 2*procs) // one slot per sender and receiver goroutine
		var wg sync.WaitGroup
		id := tr.begin("transport.alltoall", -1, rep)
		for node := 0; node < procs; node++ {
			ep := net.Endpoint(node)
			wg.Add(2)
			go func() {
				defer wg.Done()
				s := sorted[node]
				for dst := 0; dst < procs; dst++ {
					if dst == node {
						continue
					}
					part := s[dst*len(s)/procs : (dst+1)*len(s)/procs]
					err := datamgr.Chunks(dm, part, in.codec.KeySize(), func(chunk []entry, last bool) error {
						return ep.Send(dst, comm.Message[uint64]{Kind: comm.KData, Entries: chunk})
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for got := 0; got < expect[node]; {
					msg, ok := ep.Recv()
					if !ok {
						errs <- fmt.Errorf("transport replay: network closed after %d of %d entries", got, expect[node])
						return
					}
					got += len(msg.Entries)
					if msg.Release != nil {
						msg.Release()
					}
				}
			}()
		}
		wg.Wait()
		tr.end(id)
		select {
		case err := <-errs:
			return err
		default:
		}
	}
	m.set("transport.alltoall_mb_per_s", float64(volume)/1e6/(median(tr.durations("transport.alltoall"))/1e9))

	const pings = 200
	a, b := net.Endpoint(0), net.Endpoint(1)
	one := []entry{sorted[0][0]}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			msg, ok := b.Recv()
			if !ok {
				done <- fmt.Errorf("transport replay: network closed during ping-pong")
				return
			}
			if msg.Release != nil {
				msg.Release()
			}
			if err := b.Send(0, comm.Message[uint64]{Kind: comm.KData, Entries: one}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < pings; i++ {
		id := tr.begin("transport.pingpong", -1, i)
		if err := a.Send(1, comm.Message[uint64]{Kind: comm.KData, Entries: one}); err != nil {
			return err
		}
		msg, ok := a.Recv()
		tr.end(id)
		if !ok {
			return fmt.Errorf("transport replay: network closed during ping-pong")
		}
		if msg.Release != nil {
			msg.Release()
		}
	}
	if err := <-done; err != nil {
		return err
	}
	m.set("transport.msg_rtt_us", median(tr.durations("transport.pingpong"))/1e3)
	return nil
}

// replaySpill writes node 0's sorted share as one run file and reads it
// back through the run reader, under the workload's private temp dir.
func replaySpill(in replayInput, run []entry, tmp string, tr *tracer, m *metrics) error {
	dir, err := os.MkdirTemp(tmp, "replay-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	raw := float64(comm.EntriesWireBytes(run, in.codec))
	var fileBytes int64
	for rep := 0; rep < replayReps; rep++ {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.spill", rep))
		id := tr.begin("spill.Writer", -1, rep)
		w, err := spill.NewWriter(path, in.codec, 0)
		if err != nil {
			return err
		}
		if err := w.Append(run); err != nil {
			return err
		}
		if err := w.Finish(); err != nil {
			return err
		}
		tr.end(id)
		fileBytes = w.BytesWritten()

		id = tr.begin("spill.RunReader", -1, rep)
		r, err := spill.NewRunReader(path, in.codec, spill.ReaderOpts[uint64]{})
		if err != nil {
			return err
		}
		got := 0
		for {
			batch, err := r.Next()
			if err != nil {
				r.Close()
				return err
			}
			if len(batch) == 0 {
				break
			}
			got += len(batch)
		}
		tr.end(id)
		if err := r.Close(); err != nil {
			return err
		}
		if got != len(run) {
			return fmt.Errorf("spill replay: read %d entries back, wrote %d", got, len(run))
		}
	}
	m.set("spill.write_mb_per_s", raw/1e6/(median(tr.durations("spill.Writer"))/1e9))
	m.set("spill.read_mb_per_s", raw/1e6/(median(tr.durations("spill.RunReader"))/1e9))
	m.set("spill.file_bytes_per_key", float64(fileBytes)/float64(len(run)))
	return nil
}

// replayKeyio decodes the request body the way the service's streaming
// ingress does and encodes the keys the way its answer is written.
func replayKeyio(in replayInput, tr *tracer, m *metrics) error {
	n := len(in.body) / 8
	keys := make([]uint64, 0, n)
	for rep := 0; rep < replayReps; rep++ {
		keys = keys[:0]
		id := tr.begin("keyio.StreamDecoder", -1, rep)
		dec := keyio.NewStreamDecoder(bytes.NewReader(in.body), keyio.ScanUint64s, 0)
		var err error
		for err == nil {
			keys, err = dec.Next(keys)
		}
		tr.end(id)
		if err != io.EOF || len(keys) != n {
			return fmt.Errorf("keyio replay: decoded %d of %d keys: %v", len(keys), n, err)
		}
		id = tr.begin("keyio.EncodeUint64s", -1, rep)
		keep = keyio.EncodeUint64s(keys)
		tr.end(id)
	}
	m.set("keyio.decode_ns_per_key", median(tr.durations("keyio.StreamDecoder"))/float64(n))
	m.set("keyio.encode_ns_per_key", median(tr.durations("keyio.EncodeUint64s"))/float64(n))
	return nil
}

// memcpyBytes is the size of each buffer of the copy-bandwidth probe: 16
// times the 4 MiB per-core L2, a quarter of the host's shared L3.
const memcpyBytes = 64 << 20

// replayRef measures the machine on this day, in this process, on the
// workload's key count: the denominators that turn a slow day on a
// shared box into a visible drop in ref.* instead of a false regression.
func replayRef(in replayInput, tr *tracer, m *metrics) {
	n := len(in.flat)
	work := make([]uint64, n)
	scratch := make([]uint64, n)
	src := make([]byte, memcpyBytes)
	dst := make([]byte, memcpyBytes)
	raw := keyio.EncodeUint64s(in.flat)
	for rep := 0; rep < replayReps; rep++ {
		copy(work, in.flat)
		id := tr.begin("ref.slices.Sort", -1, rep)
		slices.Sort(work)
		tr.end(id)

		copy(work, in.flat)
		id = tr.begin("ref.lsort.RadixSort", -1, rep)
		lsort.RadixSort(work, scratch, func(k uint64) uint64 { return k }, 64)
		tr.end(id)

		id = tr.begin("ref.memcpy", -1, rep)
		copy(dst, src)
		tr.end(id)

		id = tr.begin("ref.sha256", -1, rep)
		keep = sha256.Sum256(raw)
		tr.end(id)
	}
	perSec := func(span string, amount float64) float64 { return amount / (median(tr.durations(span)) / 1e9) }
	m.set("ref.slices_sort_keys_per_s", perSec("ref.slices.Sort", float64(n)))
	m.set("ref.radix_flat_keys_per_s", perSec("ref.lsort.RadixSort", float64(n)))
	m.set("ref.memcpy_gb_per_s", perSec("ref.memcpy", memcpyBytes/1e9))
	m.set("ref.sha256_mb_per_s", perSec("ref.sha256", float64(len(raw))/1e6))
}
