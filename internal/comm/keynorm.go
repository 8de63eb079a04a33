package comm

import (
	"cmp"
	"math"
	"reflect"
	"unsafe"
)

// KeyNormalizer is the seam a codec overrides the engine's key order
// through. The engine orders every key by an order-preserving image in
// uint64 — it takes each key's image once and sorts and merges
// (image, index) refs — and NormFor supplies one for every ordered kind;
// a codec that implements KeyNormalizer supplies its own instead.
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
// imply equal keys (e.g. StringCodec's 8-byte prefix). The engine sorts
// and merges refs over such norms all the same, then stable-sorts each
// equal-norm run by the real keys; its comparators are norm first, real
// key order on ties.
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
// total order the engine produces for float keys — pinning the values
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

// NormFor returns the built-in order-preserving normalization for K,
// resolved once from K's kind, so named types (type UserID int32) get
// their kind's norm: signed integers widen and flip the sign bit,
// unsigned integers widen, floats take the IEEE-754 total order of their
// own width, strings the StringCodec prefix. inexact reports a norm that
// is monotone but not injective — the string prefix, and nothing else.
// Every kind cmp.Ordered admits has a norm. A codec implementing
// KeyNormalizer takes precedence over this table — see core.NewEngine.
//
// The returned func reads its argument through as: no interface is
// built per key.
func NormFor[K cmp.Ordered]() (norm func(K) uint64, inexact bool) {
	switch reflect.TypeFor[K]().Kind() {
	case reflect.Int:
		return func(k K) uint64 { return I64Codec{}.Norm(int64(as[int](&k))) }, false
	case reflect.Int8:
		return func(k K) uint64 { return I64Codec{}.Norm(int64(as[int8](&k))) }, false
	case reflect.Int16:
		return func(k K) uint64 { return I64Codec{}.Norm(int64(as[int16](&k))) }, false
	case reflect.Int32:
		return func(k K) uint64 { return I64Codec{}.Norm(int64(as[int32](&k))) }, false
	case reflect.Int64:
		return func(k K) uint64 { return I64Codec{}.Norm(as[int64](&k)) }, false
	case reflect.Uint:
		return func(k K) uint64 { return uint64(as[uint](&k)) }, false
	case reflect.Uint8:
		return func(k K) uint64 { return uint64(as[uint8](&k)) }, false
	case reflect.Uint16:
		return func(k K) uint64 { return uint64(as[uint16](&k)) }, false
	case reflect.Uint32:
		return func(k K) uint64 { return uint64(as[uint32](&k)) }, false
	case reflect.Uint64:
		return func(k K) uint64 { return as[uint64](&k) }, false
	case reflect.Uintptr:
		return func(k K) uint64 { return uint64(as[uintptr](&k)) }, false
	case reflect.Float32:
		return func(k K) uint64 { return norm32(as[float32](&k)) }, false
	case reflect.Float64:
		return func(k K) uint64 { return F64Codec{}.Norm(as[float64](&k)) }, false
	default: // reflect.String: the one kind cmp.Ordered has left
		return func(k K) uint64 { return StringCodec{}.Norm(as[string](&k)) }, true
	}
}

// as reads *k as a U. K's underlying type must be U, which NormFor
// establishes from K's kind before it hands out a func that calls this.
func as[U, K any](k *K) U { return *(*U)(unsafe.Pointer(k)) }

// norm32 is F64Codec.Norm at float32's width: the same total order, taken
// from the key's own bits (widening to float64 would let the hardware
// quiet a signalling NaN and reorder NaN payloads).
func norm32(k float32) uint64 {
	bits := math.Float32bits(k)
	if bits>>31 == 1 {
		return uint64(^bits)
	}
	return uint64(bits | 1<<31)
}

// KeyDenormalizer is the inverse of a codec's exact KeyNormalizer:
// Denorm(Norm(k)) is k, bit for bit. A sort of bare keys under such a
// codec carries 16-byte refs (NormRef) from step 1 to the result instead
// of entries, and turns a norm back into its key only where a key is
// needed: a sample, an entry or a key of the result.
type KeyDenormalizer[K any] interface {
	// Denorm maps a norm back to the key it is the image of.
	Denorm(n uint64) K
}

// Denorm for uint64 keys is the identity.
func (U64Codec) Denorm(n uint64) uint64 { return n }

// Denorm for int64 keys flips the sign bit back.
func (I64Codec) Denorm(n uint64) int64 { return int64(n ^ 1<<63) }

// Denorm for float64 keys undoes the total-order transform: an image
// with the top bit set was a non-negative value, one without it a
// negative value with every bit flipped. NaN payloads and -0 come back
// as they went in.
func (F64Codec) Denorm(n uint64) float64 {
	if n>>63 == 1 {
		return math.Float64frombits(n &^ (1 << 63))
	}
	return math.Float64frombits(^n)
}

// Denorm for uint32 keys narrows back to 32 bits.
func (U32Codec) Denorm(n uint64) uint32 { return uint32(n) }
