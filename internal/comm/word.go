package comm

import (
	"encoding/binary"
	"fmt"

	"pgxsort/internal/alloc"
)

// U64Codec writes a key's own 8 bytes little-endian and its norm is the
// key itself, so under it — bare, or as a RecordCodec's key codec —
// entries and refs cross the codec a word at a time: the loops here move
// the key as a uint64 through binary.LittleEndian and call nothing per
// key, and a record's payload goes with one copy. Every other key codec
// takes the generic loops; the bytes and the errors are the same.

// isU64 reports whether kc is U64Codec, whose keys go a word at a time.
// U64Codec is a Codec[uint64] and of no other K, so then K is uint64.
func isU64[K any](kc Codec[K]) bool {
	_, ok := any(kc).(U64Codec)
	return ok
}

// entryWordBytes is the wire size of a key-only entry under U64Codec;
// a record adds its payload length and payload.
const entryWordBytes = 8 + originBytes

// putEntryWords is putEntries under U64Codec, withPay when the entries
// are records. Key-only entries reach it from core's spooled path — every
// run a uint64 upload spool forms and every merge pass over them, since
// the service builds its engines on the bare key codecs — and from the
// Spark baseline's shuffle (spark.SortByKey, behind the harness's Figures
// 5, 6 and 8), which a baseline as fast as its kernels allow keeps fair,
// as lsort/timsort.go does. Records reach it from every SortRecords of
// uint64 keys over TCP and every spilled run of one.
func putEntryWords(dst []byte, off int, entries []Entry[uint64], withPay bool) int {
	per := entryWordBytes
	if withPay {
		per += payloadLenBytes
	}
	for i := range entries {
		e := &entries[i]
		b := dst[off : off+per : off+per]
		binary.LittleEndian.PutUint64(b, e.Key)
		binary.LittleEndian.PutUint32(b[8:], e.Proc)
		binary.LittleEndian.PutUint32(b[12:], e.Index)
		off += per
		if withPay {
			binary.LittleEndian.PutUint32(b[entryWordBytes:], uint32(len(e.Payload)))
			off += copy(dst[off:], e.Payload)
		}
	}
	return off
}

// decodeEntryWords is DecodeEntriesSlab under U64Codec, withPay when the
// entries are records; b holds at least n entries' fixed fields. Records
// decode in one pass: each payload is copied, as its entry is read, into
// the call's one payload block, made at the first non-empty payload as
// large as the bytes left could hold — exactly the payloads' total when b
// holds nothing after the entries, as a frame's or a spill block's does.
// It fails where the generic loop fails, with the same error.
func decodeEntryWords(b []byte, n int, withPay bool, pool *alloc.SlabPool[Entry[uint64]]) ([]Entry[uint64], []byte, error) {
	entries := pool.Get(n) // a nil pool falls back to plain allocation
	if !withPay {
		for i := range entries[:n] {
			e, at := &entries[i], b[i*entryWordBytes:i*entryWordBytes+entryWordBytes:i*entryWordBytes+entryWordBytes]
			e.Key = binary.LittleEndian.Uint64(at)
			e.Payload = nil
			e.Proc = binary.LittleEndian.Uint32(at[8:])
			e.Index = binary.LittleEndian.Uint32(at[12:])
		}
		return entries, b[n*entryWordBytes:], nil
	}
	const per = entryWordBytes + payloadLenBytes
	rest := b
	var block []byte
	for i := range entries[:n] {
		if len(rest) < per {
			clear(entries[:i])
			pool.Put(entries)
			return nil, b, shortEntryWord(i, len(rest))
		}
		e, at := &entries[i], rest[:per:per]
		e.Key = binary.LittleEndian.Uint64(at)
		e.Proc = binary.LittleEndian.Uint32(at[8:])
		e.Index = binary.LittleEndian.Uint32(at[12:])
		plen := int(binary.LittleEndian.Uint32(at[entryWordBytes:]))
		rest = rest[per:]
		if len(rest) < plen {
			clear(entries[:i])
			pool.Put(entries)
			return nil, b, fmt.Errorf("comm: short payload at entry %d: have %d bytes, need %d", i, len(rest), plen)
		}
		e.Payload = nil
		if plen > 0 {
			if len(block) < plen {
				// The entries after this one need their fixed fields; the
				// rest of the bytes is the most their payloads can take.
				// Only a decode bound to fail finds the block short later.
				block = make([]byte, max(plen, len(rest)-(n-1-i)*per))
			}
			copy(block, rest[:plen])
			e.Payload, block = block[:plen:plen], block[plen:]
			rest = rest[plen:]
		}
	}
	return entries, rest, nil
}

// shortEntryWord is the generic loop's error for entry i of a record
// whose fixed fields are cut off after have bytes: which field it finds
// short.
func shortEntryWord(i, have int) error {
	switch {
	case have < 8:
		return fmt.Errorf("comm: short entry payload at entry %d", i)
	case have < entryWordBytes:
		return fmt.Errorf("comm: short entry origin at entry %d", i)
	default:
		return fmt.Errorf("comm: short payload length at entry %d", i)
	}
}

// putRefWords is putRefs under U64Codec: per bytes a ref, the last four
// a zero payload length when per has room for one.
func putRefWords(dst []byte, off int, refs []NormRef, per int) int {
	for _, r := range refs {
		b := dst[off : off+per : off+per]
		binary.LittleEndian.PutUint64(b, r.Norm)
		binary.LittleEndian.PutUint32(b[8:], r.Proc)
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
		refs[i] = NormRef{Norm: binary.LittleEndian.Uint64(at), Proc: src, Idx: binary.LittleEndian.Uint32(at[12:])}
	}
	return nil
}
