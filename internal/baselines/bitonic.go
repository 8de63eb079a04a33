// Package baselines implements the two related-work distributed sorting
// algorithms the paper discusses (§II): Batcher's bitonic sort, whose
// compare-split steps exchange each processor's *entire* local array every
// round (the communication overhead the paper criticizes), and partitioned
// parallel radix sort, whose balance depends on the key-bit distribution.
// Both run over the same transport as the PGX.D engine so their traffic is
// measured the same way.
package baselines

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/transport"
)

// Report summarizes one baseline run.
type Report struct {
	Procs     int
	N         int
	Total     time.Duration
	BytesSent int64
	MsgsSent  int64
	PartSizes []int
}

// BitonicSort sorts parts (one slice per processor) with a distributed
// bitonic network: local sort, then for each stage k and distance j a
// compare-split with partner id XOR j, where the lower-id side of an
// ascending pair keeps the smaller half of the merged data. Every
// compare-split ships the whole local array, which is the algorithm's
// defining communication cost.
//
// Like the classic algorithm (and unlike sample sort), bitonic requires a
// power-of-two processor count and *equal* local sizes — the block
// compare-split theorem does not hold for unequal blocks. Violations are
// rejected, which is itself one of the paper's §II criticisms of the
// approach.
func BitonicSort[K cmp.Ordered](parts [][]K, codec comm.Codec[K], transportKind string) ([][]K, *Report, error) {
	p := len(parts)
	if p == 0 || p&(p-1) != 0 {
		return nil, nil, fmt.Errorf("baselines: bitonic needs a power-of-two processor count, got %d", p)
	}
	for i := 1; i < p; i++ {
		if len(parts[i]) != len(parts[0]) {
			return nil, nil, fmt.Errorf("baselines: bitonic needs equal local sizes, got %d and %d",
				len(parts[0]), len(parts[i]))
		}
	}
	net, err := transport.New(transportKind, p, codec)
	if err != nil {
		return nil, nil, err
	}
	defer net.Close()

	rep := &Report{Procs: p, PartSizes: make([]int, p)}
	for _, part := range parts {
		rep.N += len(part)
	}
	out := make([][]K, p)
	errs := make([]error, p)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = bitonicNode(net.Endpoint(i), parts[i], p)
		}(i)
	}
	wg.Wait()
	rep.Total = time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("baselines: node %d: %w", i, err)
		}
		rep.PartSizes[i] = len(out[i])
	}
	for i := 0; i < p; i++ {
		rep.BytesSent += net.Endpoint(i).Stats().BytesSent()
		rep.MsgsSent += net.Endpoint(i).Stats().MsgsSent()
	}
	return out, rep, nil
}

func bitonicNode[K cmp.Ordered](ep transport.Endpoint[K], local []K, p int) ([]K, error) {
	id := ep.ID()
	mine := append([]K(nil), local...)
	less := func(a, b K) bool { return a < b }
	slices.Sort(mine)

	// Steps are not globally synchronized: a next-step partner may send
	// before this node finishes its current exchange, so receives are
	// selective, with early arrivals parked per source. A node blocks on
	// the reply for its current step before advancing, so at most one
	// message per source is ever pending.
	pending := make(map[int][]K, p)
	recvFrom := func(src int) ([]K, error) {
		if keys, ok := pending[src]; ok {
			delete(pending, src)
			return keys, nil
		}
		for {
			m, ok := ep.Recv()
			if !ok {
				return nil, fmt.Errorf("network closed mid-exchange")
			}
			if m.Src == src {
				return m.Keys, nil
			}
			if _, dup := pending[m.Src]; dup {
				return nil, fmt.Errorf("two outstanding messages from %d", m.Src)
			}
			pending[m.Src] = m.Keys
		}
	}

	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j >= 1; j >>= 1 {
			partner := id ^ j
			ascending := id&k == 0
			keepLow := (id < partner) == ascending

			if err := ep.Send(partner, comm.Message[K]{Kind: comm.KData, Keys: mine}); err != nil {
				return nil, err
			}
			theirs, err := recvFrom(partner)
			if err != nil {
				return nil, err
			}
			mine = compareSplit(mine, theirs, keepLow, less)
		}
	}
	return mine, nil
}

// compareSplit merges two sorted arrays and keeps len(mine) elements from
// the low or high end — one half of Batcher's compare-exchange generalized
// to blocks.
func compareSplit[K cmp.Ordered](mine, theirs []K, keepLow bool, less func(a, b K) bool) []K {
	keep := len(mine)
	out := make([]K, keep)
	if keepLow {
		i, j := 0, 0
		for n := 0; n < keep; n++ {
			if j >= len(theirs) || (i < len(mine) && !less(theirs[j], mine[i])) {
				out[n] = mine[i]
				i++
			} else {
				out[n] = theirs[j]
				j++
			}
		}
	} else {
		i, j := len(mine)-1, len(theirs)-1
		for n := keep - 1; n >= 0; n-- {
			if j < 0 || (i >= 0 && !less(mine[i], theirs[j])) {
				out[n] = mine[i]
				i--
			} else {
				out[n] = theirs[j]
				j--
			}
		}
	}
	return out
}
