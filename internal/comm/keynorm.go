package comm

import "math"

// KeyNormalizer is the seam that opens the engine's non-comparison fast
// path: a codec that also implements it advertises an order-preserving
// bijection from its key type onto uint64, so the local sort can take
// each key's image once and run a byte-radix sort over (image, index)
// refs instead of paying a comparison closure per element pair.
//
// Norm must be strictly monotone in the key order the engine should
// produce: a < b (in the engine's output order) iff Norm(a) < Norm(b).
// For float64 this pins a total order over the values `<` leaves
// unordered (NaN): the IEEE-754 total order, see F64Codec.Norm.
type KeyNormalizer[K any] interface {
	// Norm maps a key to its order-preserving uint64 image.
	Norm(k K) uint64
}

// InexactNormalizer marks a KeyNormalizer whose Norm is monotone but not
// injective: a < b implies Norm(a) <= Norm(b), and equal norms do NOT
// imply equal keys (e.g. StringCodec's 8-byte prefix). The engine still
// runs the radix fast path over such norms, but switches every comparator
// to a two-level compare (norm first, real key order on ties) and
// stable-sorts each equal-norm run by the real keys after each radix sort.
type InexactNormalizer interface {
	// NormInexact reports that equal norms may hide unequal keys.
	NormInexact() bool
}

// Norm for uint64 keys is the identity.
func (U64Codec) Norm(k uint64) uint64 { return k }

// Norm for int64 keys flips the sign bit, mapping two's complement onto
// the unsigned order: MinInt64 -> 0, -1 -> 2^63-1, 0 -> 2^63.
func (I64Codec) Norm(k int64) uint64 { return uint64(k) ^ (1 << 63) }

// Norm for float64 keys is the IEEE-754 total-order transform: negative
// values have every bit flipped (reversing their descending bit order),
// non-negative values have the sign bit set. The image orders
// -NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN, which is exactly the
// total order the radix path produces for float keys — pinning the values
// `<` cannot order (NaN) and separating -0 from +0 deterministically.
func (F64Codec) Norm(k float64) uint64 {
	bits := math.Float64bits(k)
	if bits>>63 == 1 {
		return ^bits
	}
	return bits | (1 << 63)
}

// Norm for uint32 keys widens to uint64.
func (U32Codec) Norm(k uint32) uint64 { return uint64(k) }

// NormFor returns the built-in order-preserving normalization for K, or
// ok=false when K has none (the engine then stays on the comparison
// path). A codec implementing KeyNormalizer takes precedence over this
// table — see core.NewEngine.
func NormFor[K any]() (norm func(K) uint64, ok bool) {
	var k K
	switch any(k).(type) {
	case uint64:
		f := any(U64Codec{}).(KeyNormalizer[K])
		return f.Norm, true
	case int64:
		f := any(I64Codec{}).(KeyNormalizer[K])
		return f.Norm, true
	case float64:
		f := any(F64Codec{}).(KeyNormalizer[K])
		return f.Norm, true
	case uint32:
		f := any(U32Codec{}).(KeyNormalizer[K])
		return f.Norm, true
	default:
		return nil, false
	}
}
