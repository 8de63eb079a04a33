package sample

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzPartition cuts arbitrary duplicate-heavy shares at exact-rank
// splitters: every destination must receive one contiguous range of the
// stable (key, proc, index) order, for any p and sample count.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, pRaw, sRaw uint8) {
		p, s := 1+int(pRaw)%16, 1+int(sRaw)
		// Each 2-byte word is a key of 16 values and a share number.
		shares := make([][]uint64, p)
		for i := 0; i+1 < len(raw) && i < 4096; i += 2 {
			q := int(binary.LittleEndian.Uint16(raw[i:])>>4) % p
			shares[q] = append(shares[q], uint64(raw[i]&15))
		}
		for _, sh := range shares {
			slices.Sort(sh)
		}
		checkStableCut(t, shares, exactRanges(shares, s))
	})
}
