package comm

import (
	"encoding/binary"
	"fmt"

	"pgxsort/internal/alloc"
)

// NormRef stands in for one key while the engine sorts (step 1), sends
// (step 5) or merges (step 6) it: Norm is the key's image under an
// order-preserving map onto uint64 (KeyNormalizer), Proc the node whose
// share the key came from and Idx a position — in the buffer being sorted
// or merged, or, once the engine sorts by ref, the key's index within its
// origin node's share. Under an exact norm with an inverse
// (KeyDenormalizer) such a ref is the key-only entry {Denorm(Norm), Proc,
// Idx} it stands for, in 16 bytes where an Entry takes 40, so a key-only
// sort sends and merges refs and builds entries only for its result.
// Proc fills what would be padding; nothing orders by it.
//
// A ref has one byte form, on the wire and in a spilled run alike, under
// every codec: its own words, Norm u64, Proc u32 and Idx u32,
// little-endian, refWireBytes in all. No key is built to frame it.
type NormRef struct {
	Norm uint64
	Proc uint32
	Idx  uint32
}

// refWireBytes is the wire size of one ref.
const refWireBytes = 16

// RefDenorm returns the inverse of c's key norm — its key codec's, which
// is then the engine's — or ok false when the norm has none: it is
// inexact, or the key codec lacks Norm or Denorm. The engine sorts bare
// keys by ref only when this is ok.
func RefDenorm[K any](c Codec[K]) (denorm func(uint64) K, ok bool) {
	kc, _ := keyCodecOf(c)
	if ix, inexact := kc.(InexactNormalizer); inexact && ix.NormInexact() {
		return nil, false
	}
	if _, ok := kc.(KeyNormalizer[K]); !ok {
		return nil, false
	}
	d, ok := kc.(KeyDenormalizer[K])
	if !ok {
		return nil, false
	}
	return d.Denorm, true
}

// RefsWireBytes returns the exact wire size of refs.
func RefsWireBytes(refs []NormRef) int { return len(refs) * refWireBytes }

// RefsFitting is EntriesFitting for refs: how many leading refs encode
// into at most room bytes.
func RefsFitting(refs []NormRef, room int) int {
	return min(len(refs), max(room, 0)/refWireBytes)
}

// EncodeRefs appends the wire form of refs to dst.
func EncodeRefs(dst []byte, refs []NormRef) []byte {
	need := RefsWireBytes(refs)
	dst = grow(dst, need)
	putRefs(dst, len(dst)-need, refs)
	return dst
}

// putRefs writes the wire form of refs into dst from offset off and
// returns the offset after the last byte: each ref's Norm, Proc and Idx.
func putRefs(dst []byte, off int, refs []NormRef) int {
	for _, r := range refs {
		b := dst[off : off+refWireBytes : off+refWireBytes]
		binary.LittleEndian.PutUint64(b, r.Norm)
		binary.LittleEndian.PutUint32(b[8:], r.Proc)
		binary.LittleEndian.PutUint32(b[12:], r.Idx)
		off += refWireBytes
	}
	return off
}

// DecodeRefsSlab parses n refs sent by node src from b (a ref frame's
// payload, or a block of a spilled ref run) into a slab from pool (which
// may be nil) and returns the remaining bytes for the caller to refuse or
// read on. A ref naming another origin than src, or bytes too short for
// n refs, fail the decode with b untouched: the bytes come from a peer or
// a disk.
func DecodeRefsSlab(b []byte, n int, src uint32, pool *alloc.SlabPool[NormRef]) ([]NormRef, []byte, error) {
	if n < 0 || n > len(b)/refWireBytes {
		return nil, b, fmt.Errorf("comm: short ref payload: %d bytes cannot hold %d refs", len(b), n)
	}
	refs := pool.Get(n)
	for i := range refs {
		at := b[i*refWireBytes:][:refWireBytes:refWireBytes]
		if proc := binary.LittleEndian.Uint32(at[8:]); proc != src {
			pool.Put(refs)
			return nil, b, fmt.Errorf("comm: ref %d names origin %d in a frame from %d", i, proc, src)
		}
		refs[i] = NormRef{Norm: binary.LittleEndian.Uint64(at), Proc: src, Idx: binary.LittleEndian.Uint32(at[12:])}
	}
	return refs, b[n*refWireBytes:], nil
}
