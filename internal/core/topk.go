package core

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
)

// TopKResult is the outcome of a distributed top-k / bottom-k query.
type TopKResult[K cmp.Ordered] struct {
	// Entries holds the k selected entries (descending for TopK,
	// ascending for BottomK), with their origins.
	Entries []comm.Entry[K]
	// BytesSent is the total traffic of the query — p*k candidate
	// entries rather than the whole dataset.
	BytesSent int64
	// Duration is the wall time of the query.
	Duration time.Duration
}

// TopK answers the paper's "retrieving top values from their graph data"
// use case (§III) without a full distributed sort: every processor
// preselects its local k largest entries with a bounded heap (O(n log k),
// no data redistribution), ships only those candidates to the master, and
// the master reduces p*k candidates to the global top k. Entries are
// returned in descending key order.
func (e *Engine[K]) TopK(parts [][]K, k int) (*TopKResult[K], error) {
	return e.selectK(parts, k, false)
}

// BottomK returns the k globally smallest entries in ascending order,
// symmetric to TopK.
func (e *Engine[K]) BottomK(parts [][]K, k int) (*TopKResult[K], error) {
	return e.selectK(parts, k, true)
}

// selectK gathers each node's local k extremes — the largest, or with
// bottom the smallest — and reduces them at the master. Entries are
// selected under the order Sort produces (norm, then key), so the answer
// is Sort's Top or Bottom whatever `<` makes of the keys (float NaNs).
func (e *Engine[K]) selectK(parts [][]K, k int, bottom bool) (*TopKResult[K], error) {
	keyLess := e.comparators().keyLess
	// worse loses a comparison: it is evicted from the bounded heap first.
	worse := func(a, b comm.Entry[K]) bool { return keyLess(a.Key, b.Key) }
	if bottom {
		worse = func(a, b comm.Entry[K]) bool { return keyLess(b.Key, a.Key) }
	}
	p := e.opts.Procs
	if len(parts) != p {
		return nil, fmt.Errorf("core: got %d parts for %d processors", len(parts), p)
	}
	if k < 0 {
		return nil, fmt.Errorf("core: negative k")
	}
	sortID := e.nextSortID.Add(1)
	start := time.Now()

	errs := make([]error, p)
	var masterEntries []comm.Entry[K]
	var bytesSent int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := e.nodes[i]
			local := parts[i]
			// Local candidate selection in WorkersPerProc chunks, one
			// goroutine each as step 1 splits its share, then a
			// node-level reduction.
			partials := make([][]comm.Entry[K], min(e.opts.WorkersPerProc, len(local)))
			var cwg sync.WaitGroup
			for c := range partials {
				lo, hi := c*len(local)/len(partials), (c+1)*len(local)/len(partials)
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					src := &keySource[K]{keys: local, node: uint32(i)}
					chunk := make([]comm.Entry[K], hi-lo)
					for j := range chunk {
						chunk[j] = src.entry(lo + j)
					}
					partials[c] = lsort.TopK(chunk, k, worse)
				}()
			}
			cwg.Wait()
			var flat []comm.Entry[K]
			for _, part := range partials {
				flat = append(flat, part...)
			}
			candidates := lsort.TopK(flat, k, worse)

			if i == master {
				mu.Lock()
				masterEntries = append(masterEntries, candidates...)
				mu.Unlock()
				return
			}
			m := comm.Message[K]{Kind: comm.KData, SortID: sortID, Entries: candidates}
			if err := n.ep.Send(master, m); err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			bytesSent += int64(m.WireBytes(e.codec))
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
	}

	// Master-side reduction of the gathered candidates.
	mnode := e.nodes[master]
	for i := 0; i < p-1; i++ {
		m, ok := mnode.mb(sortID, comm.KData).pop()
		if !ok {
			return nil, fmt.Errorf("core: network closed during top-k gather")
		}
		masterEntries = append(masterEntries, m.Entries...)
	}
	for i := 0; i < p; i++ {
		e.nodes[i].dropSort(sortID)
	}
	return &TopKResult[K]{
		Entries:   lsort.TopK(masterEntries, k, worse),
		BytesSent: bytesSent,
		Duration:  time.Since(start),
	}, nil
}
