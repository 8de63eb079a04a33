package lsort

import "sync"

// radixBits is the digit width of the LSD radix passes: one byte per
// pass, 256 counting buckets.
const radixBits = 8

// maxRadixPasses bounds the pass count (64-bit keys, 8-bit digits).
const maxRadixPasses = 64 / radixBits

// RadixSort sorts s by the uint64 image key(e), least-significant byte
// first, moving whole elements: where a comparison sort pays a
// less-closure call per comparison (~n log n of them), radix pays a fixed number of
// counting passes — and skips every pass whose byte column is constant
// across the data, so small-domain, few-distinct and constant inputs
// finish in one or two passes instead of eight. The engine's step 1
// sorts 16-byte refs instead (SortNormRefs); this generic form is the
// repository benchmark's yardstick for what a pass over a flat key and
// over a 40-byte entry costs.
//
// key must be an order-preserving map onto uint64 (see comm.KeyNormalizer)
// and keyBits its significant width (bits above it are assumed zero; pass
// 64 when unsure). scratch must have at least len(s) elements; the sorted
// result always ends in s. RadixSort is stable: entries with equal keys
// keep their input order.
func RadixSort[E any](s, scratch []E, key func(E) uint64, keyBits int) {
	n := len(s)
	if n < 2 {
		return
	}
	if len(scratch) < n {
		panic("lsort: radix scratch smaller than data")
	}
	if keyBits <= 0 || keyBits > 64 {
		keyBits = 64
	}
	passes := (keyBits + radixBits - 1) / radixBits

	// Cheap pre-pass: find which byte columns actually vary. Constant
	// columns (the whole upper half of a narrow-domain key, every column
	// of a constant input) are skipped before any bucket is counted.
	first := key(s[0])
	var diff uint64
	for i := 1; i < n; i++ {
		diff |= key(s[i]) ^ first
	}
	var varying [maxRadixPasses]int
	nv := 0
	for d := 0; d < passes; d++ {
		if byte(diff>>(radixBits*d)) != 0 {
			varying[nv] = d
			nv++
		}
	}
	if nv == 0 {
		return // all keys equal
	}

	// One histogram pass counts every varying column's digits at once;
	// the distribution passes then run without re-counting.
	var counts [maxRadixPasses][1 << radixBits]int
	for i := 0; i < n; i++ {
		k := key(s[i])
		for vi := 0; vi < nv; vi++ {
			counts[vi][byte(k>>(radixBits*varying[vi]))]++
		}
	}

	src, dst := s, scratch
	for vi := 0; vi < nv; vi++ {
		shift := uint(radixBits * varying[vi])
		c := &counts[vi]
		var starts [1 << radixBits]int
		pos := 0
		for v := range starts {
			starts[v] = pos
			pos += c[v]
		}
		for i := 0; i < n; i++ {
			e := src[i]
			v := byte(key(e) >> shift)
			dst[starts[v]] = e
			starts[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src[:n])
	}
}

// ParallelRadixSort is RadixSort chunked across workers: data is
// divided equally among workers, each worker radix-sorts its chunk
// against its slice of the shared scratch buffer, and the sorted chunks
// are combined with the balanced merging handler of Figure 2. Step 1
// no longer runs this shape — SortNormRefs splits every pass of one
// radix among the workers, which leaves nothing to merge — and the
// repository benchmark keeps it as a yardstick. less must order exactly
// as key does (e.g. compare key images); it drives the merges.
//
// scratch must have at least len(s) elements; the result always ends in
// s. Like sequential RadixSort the sort is stable: chunk sorts are
// stable and both the pairwise merges and the intra-merge CoRank splits
// preserve left-run-first tie order, so the output is independent of the
// worker count and chunk boundaries. The spill tier's differential
// guarantee relies on this.
func ParallelRadixSort[E any](s, scratch []E, key func(E) uint64, keyBits int, less func(x, y E) bool, workers int) {
	n := len(s)
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || n <= 2*insertionCutoff {
		RadixSort(s, scratch, key, keyBits)
		return
	}
	if workers > n {
		workers = n
	}
	if len(scratch) < n {
		panic("lsort: radix scratch smaller than data")
	}
	bounds := chunkBounds(n, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(chunk, chunkScratch []E) {
			defer wg.Done()
			RadixSort(chunk, chunkScratch, key, keyBits)
		}(s[lo:hi], scratch[lo:hi])
	}
	wg.Wait()

	out := MergeAdjacentRuns(s, scratch, bounds, less, true)
	if len(out) > 0 && &out[0] != &s[0] {
		copy(s, out)
	}
}

// chunkBounds returns workers+1 boundaries splitting n elements into
// equal chunks, as in the paper: thread i owns chunk i.
func chunkBounds(n, workers int) []int {
	bounds := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		bounds[i] = i * n / workers
	}
	return bounds
}
