package baselines

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

func mkParts(kind dist.Kind, procs, perProc int, seed uint64) [][]uint64 {
	parts := make([][]uint64, procs)
	for i := range parts {
		parts[i] = dist.Gen{Kind: kind, Seed: seed + uint64(i)}.Keys(perProc)
	}
	return parts
}

func TestBitonicSortDistributions(t *testing.T) {
	for _, kind := range dist.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			parts := mkParts(kind, 8, 1000, 5)
			out, rep, err := BitonicSort(parts, comm.U64Codec{}, transport.KindChan)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifySorted(parts, out); err != nil {
				t.Fatal(err)
			}
			if rep.N != 8000 {
				t.Errorf("N = %d", rep.N)
			}
			// Bitonic keeps local sizes fixed.
			for i, p := range out {
				if len(p) != 1000 {
					t.Errorf("part %d resized to %d", i, len(p))
				}
			}
			// log2(8)=3 stages, 1+2+3 = 6 compare-splits per node, each
			// shipping the full local array.
			wantBytes := int64(8 * 6 * 1000 * 8)
			if rep.BytesSent != wantBytes {
				t.Errorf("bitonic traffic = %d, want %d (entire arrays every step)",
					rep.BytesSent, wantBytes)
			}
		})
	}
}

func TestBitonicRejectsUnequalParts(t *testing.T) {
	parts := [][]uint64{{9, 1, 5}, {2}, {7, 7, 7, 7}, {}}
	if _, _, err := BitonicSort(parts, comm.U64Codec{}, transport.KindChan); err == nil {
		t.Fatal("accepted unequal local sizes; block compare-split requires equal blocks")
	}
}

func TestBitonicDuplicateHeavy(t *testing.T) {
	parts := mkParts(dist.Constant, 4, 256, 3)
	out, _, err := BitonicSort(parts, comm.U64Codec{}, transport.KindChan)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySorted(parts, out); err != nil {
		t.Fatal(err)
	}
}

func TestBitonicRejectsNonPowerOfTwo(t *testing.T) {
	if _, _, err := BitonicSort(mkParts(dist.Uniform, 3, 10, 1), comm.U64Codec{}, transport.KindChan); err == nil {
		t.Fatal("accepted p=3")
	}
	if _, _, err := BitonicSort(nil, comm.U64Codec{}, transport.KindChan); err == nil {
		t.Fatal("accepted p=0")
	}
}

func TestBitonicOverTCP(t *testing.T) {
	parts := mkParts(dist.Normal, 4, 500, 9)
	out, _, err := BitonicSort(parts, comm.U64Codec{}, transport.KindTCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySorted(parts, out); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSplit(t *testing.T) {
	mine := []uint64{1, 4, 9}
	theirs := []uint64{2, 3, 5, 10}
	low := compareSplit(mine, theirs, true, func(a, b uint64) bool { return a < b })
	want := []uint64{1, 2, 3}
	for i := range want {
		if low[i] != want[i] {
			t.Fatalf("low = %v, want %v", low, want)
		}
	}
	// Union sorted: {1,2,3,4,5,9,10}; the top len(mine)=3 are {5,9,10}.
	high := compareSplit(mine, theirs, false, func(a, b uint64) bool { return a < b })
	want = []uint64{5, 9, 10}
	for i := range want {
		if high[i] != want[i] {
			t.Fatalf("high = %v, want %v", high, want)
		}
	}
	// Both keeps have len(mine) elements and partition the union with the
	// partner's complementary keeps.
	if len(low) != len(mine) || len(high) != len(mine) {
		t.Fatalf("sizes: %d + %d, want %d each", len(low), len(high), len(mine))
	}
}

func TestRadixSortDistributions(t *testing.T) {
	for _, kind := range dist.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			// Spread uniform keys across the full 64-bit range so the
			// top-byte buckets are meaningful.
			parts := mkParts(kind, 6, 1500, 21)
			if kind == dist.Uniform {
				for _, p := range parts {
					for i := range p {
						p[i] <<= 43 // push the 20-bit domain into the top bits
					}
				}
			}
			out, rep, err := RadixSort(parts, transport.KindChan)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifySorted(parts, out); err != nil {
				t.Fatal(err)
			}
			if rep.N != 9000 {
				t.Errorf("N = %d", rep.N)
			}
		})
	}
}

func TestRadixSortSingleProc(t *testing.T) {
	parts := mkParts(dist.Exponential, 1, 2000, 3)
	out, _, err := RadixSort(parts, transport.KindChan)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySorted(parts, out); err != nil {
		t.Fatal(err)
	}
}

func TestRadixImbalanceOnLowEntropyKeys(t *testing.T) {
	// All keys share the top byte -> one bucket -> one processor gets
	// everything. This is the §II weakness the paper cites.
	parts := mkParts(dist.Uniform, 4, 1000, 8) // domain 2^20, top byte always 0
	out, rep, err := RadixSort(parts, transport.KindChan)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySorted(parts, out); err != nil {
		t.Fatal(err)
	}
	maxPart := 0
	for _, s := range rep.PartSizes {
		if s > maxPart {
			maxPart = s
		}
	}
	if maxPart != rep.N {
		t.Errorf("expected total imbalance (one bucket), max part = %d of %d", maxPart, rep.N)
	}
}

func TestRadixSortLocal(t *testing.T) {
	keys := dist.Gen{Kind: dist.Uniform, Seed: 77, Domain: 0}.Keys(10000)
	for i := range keys {
		keys[i] ^= keys[i] << 31 // mix all 64 bits
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	radixSortLocal(keys)
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("radixSortLocal mismatch at %d", i)
		}
	}
	radixSortLocal(nil)            // no panic
	radixSortLocal([]uint64{1})    // no panic
	radixSortLocal([]uint64{2, 1}) // minimal
	radixSortLocal([]uint64{5, 5}) // duplicates
}

func TestAssignBuckets(t *testing.T) {
	// 4 buckets, 2 procs, balanced totals -> first two buckets to 0.
	owners := assignBuckets([]int64{10, 10, 10, 10}, 2)
	want := []int64{0, 0, 1, 1}
	for i := range want {
		if owners[i] != want[i] {
			t.Fatalf("owners = %v, want %v", owners, want)
		}
	}
	// Monotone non-decreasing and within range for skewed totals.
	owners = assignBuckets([]int64{100, 0, 0, 1, 1, 1, 1, 1}, 3)
	for i := 1; i < len(owners); i++ {
		if owners[i] < owners[i-1] {
			t.Fatalf("owners not monotone: %v", owners)
		}
	}
	for _, o := range owners {
		if o < 0 || o >= 3 {
			t.Fatalf("owner out of range: %v", owners)
		}
	}
	// Empty histogram.
	owners = assignBuckets(make([]int64, 8), 4)
	for _, o := range owners {
		if o < 0 || o >= 4 {
			t.Fatalf("empty-histogram owners out of range: %v", owners)
		}
	}
}

func TestPropertyBitonicMatchesSort(t *testing.T) {
	f := func(data []uint64) bool {
		// Carve four equal blocks from the random input.
		per := len(data) / 4
		parts := make([][]uint64, 4)
		for i := range parts {
			parts[i] = data[i*per : (i+1)*per]
		}
		out, _, err := BitonicSort(parts, comm.U64Codec{}, transport.KindChan)
		if err != nil {
			return false
		}
		return VerifySorted(parts, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRadixMatchesSort(t *testing.T) {
	f := func(a, b, c []uint64) bool {
		parts := [][]uint64{a, b, c}
		out, _, err := RadixSort(parts, transport.KindChan)
		if err != nil {
			return false
		}
		return VerifySorted(parts, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// slowLink delays every send to one destination, so that destination sees
// its peers' later messages first.
type slowLink struct {
	transport.Endpoint[uint64]
	dst   int
	delay time.Duration
}

func (e slowLink) Send(dst int, m comm.Message[uint64]) error {
	if dst == e.dst {
		time.Sleep(e.delay)
	}
	return e.Endpoint.Send(dst, m)
}

// TestRadixOwnersOvertaken forces the interleaving that used to fail a
// node and hang the rest: node 0's bucket-owner broadcast reaches node 2
// late, after node 1 — already in phase 2 — has sent node 2 its scatter
// sizes and keys. Node 2 must hold those for its own scatter loop.
func TestRadixOwnersOvertaken(t *testing.T) {
	const p = 3
	parts := mkParts(dist.Uniform, p, 500, 31)
	net, err := transport.New[uint64](transport.KindChan, p, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	out := make([][]uint64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := net.Endpoint(i)
			if i == 0 {
				ep = slowLink{Endpoint: ep, dst: p - 1, delay: 20 * time.Millisecond}
			}
			out[i], errs[i] = radixNode(ep, parts[i], p)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("radix nodes hung")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if err := VerifySorted(parts, out); err != nil {
		t.Fatal(err)
	}
}
