package lsort

// IsSorted reports whether s is non-decreasing under less.
func IsSorted[E any](s []E, less func(x, y E) bool) bool {
	for i := 1; i < len(s); i++ {
		if less(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// LowerBound returns the smallest index i in the sorted slice s such that
// !less(s[i], key), i.e. the leftmost insertion point for key.
func LowerBound[E, K any](s []E, key K, less func(e E, k K) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(s[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the smallest index i in the sorted slice s such that
// greater(s[i], key), i.e. the rightmost insertion point for key.
func UpperBound[E, K any](s []E, key K, greater func(e E, k K) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if greater(s[mid], key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
