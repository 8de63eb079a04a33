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
type NormRef struct {
	Norm uint64
	Proc uint32
	Idx  uint32
}

// refCodec is what framing refs under a codec takes: its key codec, the
// norm and its inverse, whether entries carry a payload length, and
// whether the key codec's keys go a word at a time (isU64).
type refCodec[K any] struct {
	kc      Codec[K]
	norm    KeyNormalizer[K]
	denorm  KeyDenormalizer[K]
	withPay bool
	isWord  bool
}

// refCodecOf resolves c's ref framing; ok is false unless c's key codec
// is fixed-width and supplies an exact norm and its inverse.
func refCodecOf[K any](c Codec[K]) (rc refCodec[K], ok bool) {
	rc.kc, rc.withPay = keyCodecOf(c)
	if _, isVar := rc.kc.(VarCodec[K]); isVar {
		return rc, false
	}
	if ix, inexact := rc.kc.(InexactNormalizer); inexact && ix.NormInexact() {
		return rc, false
	}
	rc.norm, ok = rc.kc.(KeyNormalizer[K])
	if ok {
		rc.denorm, ok = rc.kc.(KeyDenormalizer[K])
	}
	rc.isWord = isU64(rc.kc)
	return rc, ok
}

// RefDenorm returns the inverse of the norm refs under c are framed with
// — its key codec's, which is then the engine's — or ok false when c's
// key codec cannot frame refs: it is variable-width, its norm is inexact
// or it lacks Norm or Denorm. The engine sorts bare keys by ref only when
// this is ok.
func RefDenorm[K any](c Codec[K]) (denorm func(uint64) K, ok bool) {
	rc, ok := refCodecOf(c)
	if !ok {
		return nil, false
	}
	return rc.denorm.Denorm, true
}

// mustRefCodec is refCodecOf for a codec refs are being framed under.
func mustRefCodec[K any](c Codec[K]) refCodec[K] {
	rc, ok := refCodecOf(c)
	if !ok {
		panic(fmt.Sprintf("comm: codec %T cannot frame refs", c))
	}
	return rc
}

// refWireBytes is the wire size of one ref: the key-only entry's.
func (rc refCodec[K]) refWireBytes() int {
	n := rc.kc.KeySize() + originBytes
	if rc.withPay {
		n += payloadLenBytes
	}
	return n
}

// RefsWireBytes returns the exact wire size of refs under codec c, which
// is EntriesWireBytes of the key-only entries they stand for.
func RefsWireBytes[K any](refs []NormRef, c Codec[K]) int {
	if len(refs) == 0 {
		return 0
	}
	return len(refs) * mustRefCodec(c).refWireBytes()
}

// RefsFitting is EntriesFitting for refs under c: how many leading refs
// encode into at most room bytes.
func RefsFitting[K any](refs []NormRef, c Codec[K], room int) int {
	if len(refs) == 0 {
		return 0
	}
	return min(len(refs), max(room, 0)/mustRefCodec(c).refWireBytes())
}

// EncodeRefs appends the wire form of refs to dst, as EncodeEntries
// appends the key-only entries they stand for: the bytes are the same.
func EncodeRefs[K any](dst []byte, refs []NormRef, c Codec[K]) []byte {
	need := RefsWireBytes(refs, c)
	dst = grow(dst, need)
	putRefs(dst, len(dst)-need, refs, c)
	return dst
}

// RefWireEstimate is EntryWireEstimate for refs under c: what it returns
// for the key-only entries they stand for, so the data manager chunks
// refs exactly as it chunks those entries.
func RefWireEstimate[K any](c Codec[K]) int {
	return mustRefCodec(c).refWireBytes() - originBytes
}

// putRefs writes the wire form of refs into dst from offset off and
// returns the offset after the last byte: each ref exactly as the
// key-only entry it stands for — key, origin node, index, and a zero
// payload length when c carries payloads — so a ref frame's payload is
// byte for byte the entry frame's. Under U64Codec as key codec it takes
// the word loop.
func putRefs[K any](dst []byte, off int, refs []NormRef, c Codec[K]) int {
	if len(refs) == 0 {
		return off
	}
	rc := mustRefCodec(c)
	if rc.isWord {
		return putRefWords(dst, off, refs, rc.refWireBytes())
	}
	ks := rc.kc.KeySize()
	for _, r := range refs {
		rc.kc.PutKey(dst[off:], rc.denorm.Denorm(r.Norm))
		off += ks
		binary.LittleEndian.PutUint32(dst[off:], r.Proc)
		binary.LittleEndian.PutUint32(dst[off+4:], r.Idx)
		off += originBytes
		if rc.withPay {
			binary.LittleEndian.PutUint32(dst[off:], 0)
			off += payloadLenBytes
		}
	}
	return off
}

// DecodeRefsSlab parses n refs sent by node src from b (a ref frame's
// payload: key-only entries whose origin node is src) into a slab from
// pool (which may be nil) and returns the remaining bytes; each ref's
// Proc is src. An entry from another origin, or one with a payload, is
// not a ref and fails the decode with b untouched: the bytes come from a
// peer or a disk. Under U64Codec as key codec it takes the word
// loop.
func DecodeRefsSlab[K any](b []byte, n int, src uint32, c Codec[K], pool *alloc.SlabPool[NormRef]) ([]NormRef, []byte, error) {
	rc, ok := refCodecOf(c)
	if !ok {
		return nil, b, fmt.Errorf("comm: codec %T cannot frame refs", c)
	}
	per := rc.refWireBytes()
	if n < 0 || n > len(b)/per {
		return nil, b, fmt.Errorf("comm: short ref payload: %d bytes cannot hold %d refs", len(b), n)
	}
	refs := pool.Get(n)
	if rc.isWord {
		if err := decodeRefWords(b, refs, src, per); err != nil {
			pool.Put(refs)
			return nil, b, err
		}
		return refs, b[n*per:], nil
	}
	ks := rc.kc.KeySize()
	for i, off := 0, 0; i < n; i, off = i+1, off+per {
		at := b[off+ks:]
		if proc := binary.LittleEndian.Uint32(at); proc != src {
			pool.Put(refs)
			return nil, b, fmt.Errorf("comm: ref %d names origin %d in a frame from %d", i, proc, src)
		}
		if rc.withPay && binary.LittleEndian.Uint32(at[originBytes:]) != 0 {
			pool.Put(refs)
			return nil, b, fmt.Errorf("comm: ref %d carries a payload", i)
		}
		refs[i] = NormRef{Norm: rc.norm.Norm(rc.kc.Key(b[off:])), Proc: src, Idx: binary.LittleEndian.Uint32(at[4:])}
	}
	return refs, b[n*per:], nil
}
