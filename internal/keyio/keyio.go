// Package keyio is the canonical byte encoding of key datasets, shared
// by the pgxsort CLI's key files and the pgxsortd service's request and
// response bodies. One format per key domain:
//
//	uint64  — little-endian 8-byte words (the historical key-file format)
//	float64 — little-endian IEEE-754 bit patterns (NaN and -0.0 included)
//	string  — length-prefixed records: uint32 LE length, then raw bytes
//
// Every format round-trips bit-exactly, and because both the CLI and the
// service encode through this package, a sort submitted over HTTP
// returns bytes identical to what `pgxsort sort` writes to disk for the
// same input.
package keyio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeUint64s renders keys in the canonical uint64 format.
func EncodeUint64s(keys []uint64) []byte {
	out := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(out[8*i:], k)
	}
	return out
}

// DecodeUint64s parses the canonical uint64 format.
func DecodeUint64s(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("keyio: %d bytes is not a multiple of 8", len(b))
	}
	keys := make([]uint64, len(b)/8)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return keys, nil
}

// EncodeFloat64s renders keys as little-endian IEEE-754 bit patterns.
func EncodeFloat64s(keys []float64) []byte {
	out := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(k))
	}
	return out
}

// DecodeFloat64s parses the canonical float64 format bit-exactly.
func DecodeFloat64s(b []byte) ([]float64, error) {
	u, err := DecodeUint64s(b)
	if err != nil {
		return nil, err
	}
	keys := make([]float64, len(u))
	for i, v := range u {
		keys[i] = math.Float64frombits(v)
	}
	return keys, nil
}

// EncodeStrings renders keys as uint32-LE length-prefixed records.
func EncodeStrings(keys []string) []byte {
	n := 0
	for _, k := range keys {
		n += 4 + len(k)
	}
	out := make([]byte, 0, n)
	for _, k := range keys {
		out = AppendString(out, k)
	}
	return out
}

// DecodeStrings parses length-prefixed string records, rejecting
// truncated prefixes and truncated bodies.
func DecodeStrings(b []byte) ([]string, error) {
	var keys []string
	for off := 0; off < len(b); {
		if len(b)-off < 4 {
			return nil, fmt.Errorf("keyio: truncated length prefix at byte %d", off)
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if len(b)-off < n {
			return nil, fmt.Errorf("keyio: string record at byte %d wants %d bytes, %d remain", off-4, n, len(b)-off)
		}
		keys = append(keys, string(b[off:off+n]))
		off += n
	}
	return keys, nil
}

// F64Norm is the IEEE-754 total-order transform (identical to
// comm.F64Codec's normalization): the order the engine sorts float keys
// into, with NaN and -0.0 pinned deterministically.
func F64Norm(k float64) uint64 {
	bits := math.Float64bits(k)
	if bits>>63 == 1 {
		return ^bits
	}
	return bits | (1 << 63)
}

// F64TotalLess orders floats by the IEEE-754 total order — the order
// sorted float64 datasets come back in, NaNs included.
func F64TotalLess(a, b float64) bool { return F64Norm(a) < F64Norm(b) }
