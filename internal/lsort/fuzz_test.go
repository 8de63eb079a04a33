package lsort

import (
	"encoding/binary"
	"sort"
	"testing"
)

// bytesToKeys reinterprets fuzz bytes as uint64 keys.
func bytesToKeys(data []byte) []uint64 {
	keys := make([]uint64, len(data)/8)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return keys
}

func FuzzTimSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytesToKeys(data)
		got := append([]uint64(nil), in...)
		TimSort(got, lessU64)
		want := append([]uint64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
	})
}

func FuzzTopK(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		in := bytesToKeys(data)
		k := int(kRaw % 32)
		got := TopK(in, k, lessU64)
		want := append([]uint64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		if k > len(want) {
			k = len(want)
		}
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
	})
}
