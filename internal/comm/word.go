package comm

import (
	"encoding/binary"
	"fmt"

	"pgxsort/internal/alloc"
)

// U64Codec writes a key's own 8 bytes little-endian and its norm is the
// key itself, so under it payload-free entries and refs cross the codec a
// word at a time: the loops here move the key as a uint64 through
// binary.LittleEndian and call nothing per key. Every other codec — a
// wrapper around U64Codec included — takes the generic loops; the bytes
// are the same.

// isU64 reports whether kc is U64Codec, whose keys go a word at a time.
// U64Codec is a Codec[uint64] and of no other K, so then K is uint64.
func isU64[K any](kc Codec[K]) bool {
	_, ok := any(kc).(U64Codec)
	return ok
}

// putEntryWords is putEntries for payload-free entries under U64Codec.
// A key-only U64 sort goes by ref, so only two callers reach it at run
// time: the Spark baseline's shuffle (spark.SortByKey, behind the
// harness's Figures 5, 6 and 8) and core's SortSpooled under a bare
// U64Codec. The service's spooled jobs do not: they spool under
// RecordCodec, whose payload length sends them down the generic loop. It
// stays for the reason lsort/timsort.go does — a baseline as fast as its
// kernels allow keeps the paper's comparison fair.
func putEntryWords(dst []byte, off int, entries []Entry[uint64]) int {
	for i := range entries {
		e := &entries[i]
		b := dst[off : off+16 : off+16]
		binary.LittleEndian.PutUint64(b, e.Key)
		binary.LittleEndian.PutUint32(b[8:], e.Proc)
		binary.LittleEndian.PutUint32(b[12:], e.Index)
		off += 16
	}
	return off
}

// decodeEntryWords is DecodeEntriesSlab for payload-free entries under
// U64Codec; b holds at least n of them.
func decodeEntryWords(b []byte, n int, pool *alloc.SlabPool[Entry[uint64]]) ([]Entry[uint64], []byte) {
	entries := pool.Get(n) // a nil pool falls back to plain allocation
	for i := range entries[:n] {
		e, at := &entries[i], b[i*16:i*16+16:i*16+16]
		e.Key = binary.LittleEndian.Uint64(at)
		e.Payload = nil
		e.Proc = binary.LittleEndian.Uint32(at[8:])
		e.Index = binary.LittleEndian.Uint32(at[12:])
	}
	return entries, b[n*16:]
}

// putRefWords is putRefs under U64Codec: per bytes a ref, the last four
// a zero payload length when per has room for one.
func putRefWords(dst []byte, off int, refs []NormRef, src uint32, per int) int {
	for _, r := range refs {
		b := dst[off : off+per : off+per]
		binary.LittleEndian.PutUint64(b, r.Norm)
		binary.LittleEndian.PutUint32(b[8:], src)
		binary.LittleEndian.PutUint32(b[12:], r.Idx)
		if per > 16 {
			binary.LittleEndian.PutUint32(b[16:], 0)
		}
		off += per
	}
	return off
}

// decodeRefWords is DecodeRefsSlab's loop under U64Codec: b holds at
// least len(refs) refs of per bytes. It fills refs, or reports the first
// ref from another origin than src or, when per has room for one, with a
// non-zero payload length.
func decodeRefWords(b []byte, refs []NormRef, src uint32, per int) error {
	for i := range refs {
		at := b[i*per : i*per+per : i*per+per]
		if proc := binary.LittleEndian.Uint32(at[8:]); proc != src {
			return fmt.Errorf("comm: ref %d names origin %d in a frame from %d", i, proc, src)
		}
		if per > 16 && binary.LittleEndian.Uint32(at[16:]) != 0 {
			return fmt.Errorf("comm: ref %d carries a payload", i)
		}
		refs[i] = NormRef{Norm: binary.LittleEndian.Uint64(at), Idx: binary.LittleEndian.Uint32(at[12:])}
	}
	return nil
}
