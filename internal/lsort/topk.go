package lsort

// TopK returns the k largest elements of s in descending order without
// sorting s (bounded min-heap selection, O(n log k)). It supports the
// library's top-values API: each processor preselects its local top-k so
// only p*k candidates ever travel to the master.
func TopK[E any](s []E, k int, less func(x, y E) bool) []E {
	if k <= 0 || len(s) == 0 {
		return nil
	}
	if k > len(s) {
		k = len(s)
	}
	// heap[0] is the smallest of the current top-k (min-heap by less).
	heap := make([]E, k)
	copy(heap, s[:k])
	for i := k / 2; i >= 0; i-- {
		siftDown(heap, i, less)
	}
	for _, e := range s[k:] {
		if less(heap[0], e) {
			heap[0] = e
			siftDown(heap, 0, less)
		}
	}
	// Heap-sort the survivors into descending order.
	out := heap
	for end := len(out) - 1; end > 0; end-- {
		out[0], out[end] = out[end], out[0]
		siftDown(out[:end], 0, less)
	}
	return out
}

// siftDown restores the min-heap property at index i.
func siftDown[E any](heap []E, i int, less func(x, y E) bool) {
	n := len(heap)
	for {
		smallest := i
		if l := 2*i + 1; l < n && less(heap[l], heap[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && less(heap[r], heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		heap[i], heap[smallest] = heap[smallest], heap[i]
		i = smallest
	}
}
