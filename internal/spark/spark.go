// Package spark is the comparison baseline: a miniature bulk-synchronous
// RDD engine whose sortByKey reproduces the structure of Spark 1.6.1's
// implementation, the system the paper benchmarks against (§II, §V).
//
// The stages and costs mirror real Spark rather than injecting artificial
// delays:
//
//   - sample stage: an extra full pass over the *unsorted* input with
//     reservoir sampling per partition, collected at the driver;
//   - driver: range bounds from the sorted sample pool;
//   - map stage: every element is routed with a binary search and
//     *serialized* into per-reducer shuffle blocks (Spark always
//     serializes shuffle data, even in memory);
//   - stage barrier: no reducer starts before every mapper finishes
//     (the bulk-synchronous model the paper contrasts with PGX.D's
//     relaxed barriers);
//   - reduce stage: each reducer fetches and deserializes its blocks,
//     then TimSorts the concatenation (Spark sorts on the reduce side
//     with TimSort; there are no presorted runs to merge).
//
// Every stage runs one task goroutine per partition and waits for all of
// them, as the PGX.D engine runs one goroutine per processor, so CPU
// parallelism is comparable.
package spark

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/lsort"
	"pgxsort/internal/sample"
)

// Config sizes the simulated cluster.
type Config struct {
	// Partitions is the RDD partition count (the paper's "processors").
	Partitions int
	// Seed drives reservoir sampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	return c
}

// Context owns the configuration and the shuffle memory accounting.
type Context struct {
	cfg     Config
	tracker alloc.Tracker
}

// NewContext returns a simulated Spark context.
func NewContext(cfg Config) *Context {
	return &Context{cfg: cfg.withDefaults()}
}

// Config returns the resolved configuration.
func (sc *Context) Config() Config { return sc.cfg }

// RDD is a partitioned dataset.
type RDD[K cmp.Ordered] struct {
	sc    *Context
	parts [][]K
}

// Parallelize block-distributes data into the configured partition count.
func Parallelize[K cmp.Ordered](sc *Context, data []K) *RDD[K] {
	return &RDD[K]{sc: sc, parts: core.Blocks(data, sc.cfg.Partitions)}
}

// FromParts wraps per-partition data already in place.
func FromParts[K cmp.Ordered](sc *Context, parts [][]K) (*RDD[K], error) {
	if len(parts) != sc.cfg.Partitions {
		return nil, fmt.Errorf("spark: got %d parts for %d partitions", len(parts), sc.cfg.Partitions)
	}
	return &RDD[K]{sc: sc, parts: parts}, nil
}

// Parts exposes the partition slices.
func (r *RDD[K]) Parts() [][]K { return r.parts }

// Len returns the total element count.
func (r *RDD[K]) Len() int {
	n := 0
	for _, p := range r.parts {
		n += len(p)
	}
	return n
}

// Report describes one sortByKey run.
type Report struct {
	Partitions   int
	N            int
	SampleStage  time.Duration
	MapStage     time.Duration
	ReduceStage  time.Duration
	Total        time.Duration
	ShuffleBytes int64
	SampledKeys  int
	PartSizes    []int
	// TempPeakBytes tracks shuffle block memory (serialized blocks are
	// Spark's in-memory shuffle files).
	TempPeakBytes int64
}

// LoadImbalance returns max/avg output partition size.
func (r *Report) LoadImbalance() float64 {
	if r.N == 0 || len(r.PartSizes) == 0 {
		return 1
	}
	maxPart := 0
	for _, s := range r.PartSizes {
		if s > maxPart {
			maxPart = s
		}
	}
	return float64(maxPart) / (float64(r.N) / float64(len(r.PartSizes)))
}

// Spark 1.6 RangePartitioner constants (rangePartition.scala): sampleSize
// = min(20*partitions, 1e6), oversampled 3x per partition.
const (
	samplePointsPerPartitionHint = 20
	maxSampleSize                = 1_000_000
	oversample                   = 3
)

// SortByKey sorts the RDD globally, returning a new range-partitioned RDD
// whose partition i holds keys <= partition i+1's, plus the stage report.
func SortByKey[K cmp.Ordered](r *RDD[K], codec comm.Codec[K]) (*RDD[K], *Report) {
	sc := r.sc
	p := sc.cfg.Partitions
	rep := &Report{Partitions: p, N: r.Len()}
	start := time.Now()

	// ---- Stage 1: sample (extra pass over unsorted data) ----
	t0 := time.Now()
	sampleSize := samplePointsPerPartitionHint * p
	if sampleSize > maxSampleSize {
		sampleSize = maxSampleSize
	}
	perPartition := (oversample*sampleSize + p - 1) / p
	sampled := make([][]K, p)
	stage(p, func(i int) {
		sampled[i] = reservoir(r.parts[i], perPartition, sc.cfg.Seed+uint64(i))
	})
	// Driver: collect and sort the sample pool, pick p-1 bounds.
	var pool []K
	for _, s := range sampled {
		pool = append(pool, s...)
	}
	rep.SampledKeys = len(pool)
	lsort.TimSort(pool, func(a, b K) bool { return a < b })
	bounds := sample.SplittersFromSorted(pool, p)
	rep.SampleStage = time.Since(t0)

	// ---- Stage 2: map + shuffle write (serialize into blocks) ----
	// sortByKey operates on key-value pairs: like the PGX.D engine's
	// entries (key + 8-byte provenance), every shuffled record carries
	// its key and an 8-byte value (origin partition and position), so
	// the two systems move the same bytes per record.
	t0 = time.Now()
	// blocks[mapper][reducer] is a serialized shuffle block.
	blocks := make([][][]byte, p)
	blockLens := make([][]int, p)
	stage(p, func(i int) {
		bufs := make([][]byte, p)
		lens := make([]int, p)
		one := make([]comm.Entry[K], 1)
		for pos, k := range r.parts[i] {
			dst := partitionFor(k, bounds)
			one[0] = comm.Entry[K]{Key: k, Proc: uint32(i), Index: uint32(pos)}
			bufs[dst] = comm.EncodeEntries(bufs[dst], one, codec)
			lens[dst]++
		}
		var total int64
		for _, b := range bufs {
			total += int64(len(b))
		}
		sc.tracker.Alloc(total)
		blocks[i] = bufs
		blockLens[i] = lens
	}) // all shuffle files written
	rep.MapStage = time.Since(t0)

	// ---- Stage 3: reduce = shuffle read + TimSort ----
	t0 = time.Now()
	out := make([][]K, p)
	var shuffleBytes int64
	var mu sync.Mutex
	stage(p, func(j int) {
		n := 0
		for i := 0; i < p; i++ {
			n += blockLens[i][j]
		}
		merged := make([]comm.Entry[K], 0, n)
		var fetched int64
		for i := 0; i < p; i++ {
			entries, _, err := comm.DecodeEntries(blocks[i][j], blockLens[i][j], codec)
			if err != nil {
				panic(fmt.Sprintf("spark: corrupt shuffle block %d->%d: %v", i, j, err))
			}
			fetched += int64(len(blocks[i][j]))
			merged = append(merged, entries...)
		}
		lsort.TimSort(merged, func(a, b comm.Entry[K]) bool { return a.Key < b.Key })
		keys := make([]K, len(merged))
		for idx, e := range merged {
			keys[idx] = e.Key
		}
		out[j] = keys
		mu.Lock()
		shuffleBytes += fetched
		mu.Unlock()
	})
	// Blocks are released after the stage, like shuffle cleanup.
	var blockTotal int64
	for i := range blocks {
		for j := range blocks[i] {
			blockTotal += int64(len(blocks[i][j]))
		}
	}
	sc.tracker.Free(blockTotal)
	rep.ReduceStage = time.Since(t0)

	rep.ShuffleBytes = shuffleBytes
	rep.Total = time.Since(start)
	rep.TempPeakBytes = sc.tracker.Peak()
	rep.PartSizes = make([]int, p)
	for j, o := range out {
		rep.PartSizes[j] = len(o)
	}
	return &RDD[K]{sc: sc, parts: out}, rep
}

// stage runs task(i) for every partition i, one goroutine each, and
// returns once all have finished: the stage barrier.
func stage(p int, task func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task(i)
		}()
	}
	wg.Wait()
}

// partitionFor routes a key: the number of bounds strictly below key,
// giving partition j the keys in (bounds[j-1], bounds[j]].
func partitionFor[K cmp.Ordered](k K, bounds []K) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// reservoir draws a uniform sample of up to k elements (algorithm R).
func reservoir[K cmp.Ordered](data []K, k int, seed uint64) []K {
	if k <= 0 || len(data) == 0 {
		return nil
	}
	if k > len(data) {
		k = len(data)
	}
	out := make([]K, k)
	copy(out, data[:k])
	rng := dist.NewRNG(seed)
	for i := k; i < len(data); i++ {
		j := rng.Uint64n(uint64(i + 1))
		if j < uint64(k) {
			out[j] = data[i]
		}
	}
	return out
}

// Verify checks that the sorted RDD is globally ordered and a permutation
// of the input (multiset equality).
func Verify[K cmp.Ordered](in, out *RDD[K]) error {
	if in.Len() != out.Len() {
		return fmt.Errorf("spark: length changed: %d -> %d", in.Len(), out.Len())
	}
	counts := make(map[K]int, in.Len())
	for _, part := range in.parts {
		for _, k := range part {
			counts[k]++
		}
	}
	var prev K
	havePrev := false
	for pi, part := range out.parts {
		for i, k := range part {
			if i > 0 && part[i-1] > k {
				return fmt.Errorf("spark: partition %d unsorted at %d", pi, i)
			}
			if havePrev && prev > k {
				return fmt.Errorf("spark: global order violated entering partition %d", pi)
			}
			counts[k]--
			if counts[k] < 0 {
				return fmt.Errorf("spark: output has extra key %v", k)
			}
		}
		if len(part) > 0 {
			prev = part[len(part)-1]
			havePrev = true
		}
	}
	return nil
}
