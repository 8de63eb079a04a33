package baselines

import (
	"fmt"
	"sync"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/transport"
)

// radixBucketBits is the width of the most-significant digit used for the
// distribution step: 256 buckets are assigned to processors in contiguous
// runs so that processor order equals key order.
const radixBucketBits = 8

// radixDigitBits is the LSD digit width of the local counting-sort passes.
const radixDigitBits = 8

// RadixSort sorts uint64 parts with partitioned parallel radix sort
// (§II related work): every processor histograms the top 8 bits of its
// keys, the master aggregates the histograms and assigns contiguous bucket
// ranges to processors targeting equal loads, keys are exchanged
// all-to-all by bucket owner, and each processor finishes with a local LSD
// radix sort.
//
// The known weakness the paper cites is visible by construction: bucket
// boundaries cannot split a single over-full bucket (e.g. duplicate-heavy
// or low-entropy keys), so skewed inputs produce load imbalance.
func RadixSort(parts [][]uint64, transportKind string) ([][]uint64, *Report, error) {
	p := len(parts)
	if p == 0 {
		return nil, nil, fmt.Errorf("baselines: radix needs at least one processor")
	}
	net, err := transport.New[uint64](transportKind, p, comm.U64Codec{})
	if err != nil {
		return nil, nil, err
	}
	defer net.Close()

	rep := &Report{Procs: p, PartSizes: make([]int, p)}
	for _, part := range parts {
		rep.N += len(part)
	}
	out := make([][]uint64, p)
	errs := make([]error, p)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = radixNode(net.Endpoint(i), parts[i], p)
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

func radixNode(ep transport.Endpoint[uint64], local []uint64, p int) ([]uint64, error) {
	const buckets = 1 << radixBucketBits
	id := ep.ID()
	bucketOf := func(k uint64) int { return int(k >> (64 - radixBucketBits)) }

	// Phase 1: local histogram of the top digit, gathered at node 0.
	hist := make([]int64, buckets)
	for _, k := range local {
		hist[bucketOf(k)]++
	}
	var owners []int64               // owners[b] = processor owning bucket b
	var early []comm.Message[uint64] // phase-2 messages that arrived during phase 1
	if id == 0 {
		totals := make([]int64, buckets)
		copy(totals, hist)
		for i := 0; i < p-1; i++ {
			m, ok := ep.Recv()
			if !ok {
				return nil, fmt.Errorf("network closed gathering histograms")
			}
			if m.Kind != comm.KRangeMeta {
				return nil, fmt.Errorf("expected histogram, got %v", m.Kind)
			}
			for b, c := range m.Ints {
				totals[b] += c
			}
		}
		owners = assignBuckets(totals, p)
		for dst := 1; dst < p; dst++ {
			if err := ep.Send(dst, comm.Message[uint64]{Kind: comm.KControl, Ints: owners}); err != nil {
				return nil, err
			}
		}
	} else {
		if err := ep.Send(0, comm.Message[uint64]{Kind: comm.KRangeMeta, Ints: hist}); err != nil {
			return nil, err
		}
		// A peer that got its owners first may already be scattering:
		// its phase-2 messages can overtake node 0's broadcast, so they
		// are held for the scatter loop rather than refused.
		for owners == nil {
			m, ok := ep.Recv()
			if !ok {
				return nil, fmt.Errorf("network closed awaiting bucket owners")
			}
			if m.Kind == comm.KControl {
				owners = m.Ints
			} else {
				early = append(early, m)
			}
		}
	}

	// Phase 2: scatter keys to bucket owners; send sizes first so each
	// receiver knows when it has everything.
	outbound := make([][]uint64, p)
	for _, k := range local {
		dst := int(owners[bucketOf(k)])
		outbound[dst] = append(outbound[dst], k)
	}
	sizes := make([]int64, p)
	for d := range outbound {
		sizes[d] = int64(len(outbound[d]))
	}
	for dst := 0; dst < p; dst++ {
		if dst == id {
			continue
		}
		if err := ep.Send(dst, comm.Message[uint64]{Kind: comm.KRangeMeta, Ints: sizes}); err != nil {
			return nil, err
		}
		if len(outbound[dst]) > 0 {
			if err := ep.Send(dst, comm.Message[uint64]{Kind: comm.KData, Keys: outbound[dst]}); err != nil {
				return nil, err
			}
		}
	}
	mine := append([]uint64(nil), outbound[id]...)
	expect := 0
	metaSeen := 0
	received := 0
	for metaSeen < p-1 || received < expect {
		var m comm.Message[uint64]
		if len(early) > 0 {
			m, early = early[0], early[1:]
		} else {
			var ok bool
			if m, ok = ep.Recv(); !ok {
				return nil, fmt.Errorf("network closed during scatter")
			}
		}
		switch m.Kind {
		case comm.KRangeMeta:
			metaSeen++
			expect += int(m.Ints[id])
		case comm.KData:
			mine = append(mine, m.Keys...)
			received += len(m.Keys)
		default:
			return nil, fmt.Errorf("unexpected %v during scatter", m.Kind)
		}
	}

	// Phase 3: local LSD radix sort.
	radixSortLocal(mine)
	return mine, nil
}

// assignBuckets walks the aggregated histogram and assigns contiguous
// bucket runs to processors, closing a processor's run once it reaches the
// ideal share. Single over-full buckets cannot be split.
func assignBuckets(totals []int64, p int) []int64 {
	owners := make([]int64, len(totals))
	var grand int64
	for _, c := range totals {
		grand += c
	}
	ideal := (grand + int64(p) - 1) / int64(p)
	if ideal == 0 {
		ideal = 1
	}
	proc := int64(0)
	var acc int64
	for b, c := range totals {
		owners[b] = proc
		acc += c
		if acc >= ideal && proc < int64(p-1) {
			proc++
			acc = 0
		}
	}
	return owners
}

// radixSortLocal is an in-place-output LSD radix sort with 8-bit digits.
func radixSortLocal(keys []uint64) {
	if len(keys) < 2 {
		return
	}
	const digits = 64 / radixDigitBits
	const radix = 1 << radixDigitBits
	buf := make([]uint64, len(keys))
	src, dst := keys, buf
	for d := 0; d < digits; d++ {
		shift := uint(d * radixDigitBits)
		var counts [radix]int
		for _, k := range src {
			counts[(k>>shift)&(radix-1)]++
		}
		// Skip passes where all keys share the digit.
		if counts[src[0]>>shift&(radix-1)] == len(src) {
			continue
		}
		pos := 0
		var starts [radix]int
		for v := 0; v < radix; v++ {
			starts[v] = pos
			pos += counts[v]
		}
		for _, k := range src {
			v := (k >> shift) & (radix - 1)
			dst[starts[v]] = k
			starts[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// VerifySorted checks global sortedness and size preservation for a
// baseline's output against its input.
func VerifySorted(in, out [][]uint64) error {
	nIn, nOut := 0, 0
	for _, p := range in {
		nIn += len(p)
	}
	counts := make(map[uint64]int, nIn)
	for _, p := range in {
		for _, k := range p {
			counts[k]++
		}
	}
	var prev uint64
	havePrev := false
	for pi, part := range out {
		nOut += len(part)
		for i, k := range part {
			if i > 0 && part[i-1] > k {
				return fmt.Errorf("baselines: part %d unsorted at %d", pi, i)
			}
			if havePrev && prev > k {
				return fmt.Errorf("baselines: global order violated entering part %d", pi)
			}
			counts[k]--
			if counts[k] < 0 {
				return fmt.Errorf("baselines: extra key %d in output", k)
			}
		}
		if len(part) > 0 {
			prev = part[len(part)-1]
			havePrev = true
		}
	}
	if nIn != nOut {
		return fmt.Errorf("baselines: length changed %d -> %d", nIn, nOut)
	}
	return nil
}
