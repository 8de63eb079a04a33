package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"pgxsort/internal/alloc"
)

// Codec serializes keys of type K into wire form. The TCP transport needs
// one; the in-process transport moves typed slices and only uses KeySize
// for sampling/chunking estimates. Fixed-width key types implement just
// this interface; variable-width types (strings) additionally implement
// VarCodec, and then KeySize is only a nominal per-key estimate.
//
// The entry and ref loops call PutKey and Key once a key, through the
// interface, except under U64Codec, bare or as a RecordCodec's key codec:
// it writes the key's own bits little-endian, so there entries — records
// too — and refs cross the codec a word at a time, with no call through
// the interface (word.go). Any other key codec takes the generic loops;
// the bytes are the same.
type Codec[K any] interface {
	// KeySize is the fixed wire size of one key in bytes — or, for a
	// codec that also implements VarCodec, a nominal per-key estimate
	// used to size samples and chunk the exchange.
	KeySize() int
	// PutKey writes k into b, which has at least KeySize bytes.
	PutKey(b []byte, k K)
	// Key reads a key from b, which has at least KeySize bytes.
	Key(b []byte) K
}

// VarCodec is the variable-width extension of Codec: keys serialize to
// KeyBytes(k) bytes (framing included) instead of a fixed KeySize. The
// encode/decode helpers below prefer this interface whenever the codec
// implements it; PutKey/Key are then never called.
type VarCodec[K any] interface {
	Codec[K]
	// KeyBytes is the exact wire size of k, any length prefix included.
	KeyBytes(k K) int
	// AppendKey appends k's wire form to dst.
	AppendKey(dst []byte, k K) []byte
	// ReadKey parses one key and returns the remaining bytes.
	ReadKey(b []byte) (k K, rest []byte, err error)
}

// PayloadCarrier marks a codec whose entries serialize an opaque payload
// after the origin fields (see RecordCodec). Engines sorting records need
// one, or payloads would silently drop on the TCP transport.
type PayloadCarrier interface {
	CarriesPayload() bool
}

// keyCodecOf unwraps a payload-carrying codec to its key codec and
// reports whether entry payloads ride the wire.
func keyCodecOf[K any](c Codec[K]) (Codec[K], bool) {
	if rc, ok := c.(interface{ KeyCodec() Codec[K] }); ok {
		if pc, ok := c.(PayloadCarrier); ok && pc.CarriesPayload() {
			return rc.KeyCodec(), true
		}
		return rc.KeyCodec(), false
	}
	return c, false
}

// U64Codec serializes uint64 keys little-endian.
type U64Codec struct{}

func (U64Codec) KeySize() int              { return 8 }
func (U64Codec) PutKey(b []byte, k uint64) { binary.LittleEndian.PutUint64(b, k) }
func (U64Codec) Key(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }

// I64Codec serializes int64 keys little-endian (two's complement).
type I64Codec struct{}

func (I64Codec) KeySize() int             { return 8 }
func (I64Codec) PutKey(b []byte, k int64) { binary.LittleEndian.PutUint64(b, uint64(k)) }
func (I64Codec) Key(b []byte) int64       { return int64(binary.LittleEndian.Uint64(b)) }

// F64Codec serializes float64 keys via their IEEE-754 bits.
type F64Codec struct{}

func (F64Codec) KeySize() int { return 8 }
func (F64Codec) PutKey(b []byte, k float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(k))
}
func (F64Codec) Key(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// U32Codec serializes uint32 keys little-endian.
type U32Codec struct{}

func (U32Codec) KeySize() int              { return 4 }
func (U32Codec) PutKey(b []byte, k uint32) { binary.LittleEndian.PutUint32(b, k) }
func (U32Codec) Key(b []byte) uint32       { return binary.LittleEndian.Uint32(b) }

// EntriesWireBytes returns the exact wire size of entries under codec c:
// fixed or variable-width keys, plus the origin fields, plus a 4-byte
// length prefix and the payload bytes per entry when c carries payloads.
func EntriesWireBytes[K any](entries []Entry[K], c Codec[K]) int {
	kc, withPay := keyCodecOf(c)
	total := 0
	if vc, ok := kc.(VarCodec[K]); ok {
		for i := range entries {
			total += vc.KeyBytes(entries[i].Key)
		}
	} else {
		total = len(entries) * kc.KeySize()
	}
	total += len(entries) * originBytes
	if withPay {
		for i := range entries {
			total += payloadLenBytes + len(entries[i].Payload)
		}
	}
	return total
}

// KeysWireBytes returns the exact wire size of bare keys under codec c.
func KeysWireBytes[K any](keys []K, c Codec[K]) int {
	kc, _ := keyCodecOf(c)
	if vc, ok := kc.(VarCodec[K]); ok {
		total := 0
		for _, k := range keys {
			total += vc.KeyBytes(k)
		}
		return total
	}
	return len(keys) * kc.KeySize()
}

// EntriesFitting returns how many leading entries encode into at most
// room bytes under codec c, counting exactly what EncodeEntries writes
// per entry (key, origin, payload framing) — the spill writer's block
// sizing, where an average would let a block overshoot its target.
func EntriesFitting[K any](entries []Entry[K], c Codec[K], room int) int {
	kc, withPay := keyCodecOf(c)
	vc, isVar := kc.(VarCodec[K])
	fixed := originBytes
	if !isVar {
		fixed += kc.KeySize()
	}
	if withPay {
		fixed += payloadLenBytes
	}
	if !isVar && !withPay {
		return min(len(entries), max(room, 0)/fixed)
	}
	used := 0
	for i := range entries {
		used += fixed
		if isVar {
			used += vc.KeyBytes(entries[i].Key)
		}
		if withPay {
			used += len(entries[i].Payload)
		}
		if used > room {
			return i
		}
	}
	return len(entries)
}

// EntryWireEstimate returns the average per-entry wire size (origin
// excluded) over a bounded prefix of entries — the data manager's
// chunking estimate for variable-width keys and payload-carrying codecs.
// Fixed-width key-only codecs return KeySize exactly.
func EntryWireEstimate[K any](entries []Entry[K], c Codec[K]) int {
	kc, withPay := keyCodecOf(c)
	vc, isVar := kc.(VarCodec[K])
	if !isVar && !withPay {
		return kc.KeySize()
	}
	sample := len(entries)
	if sample > 64 {
		sample = 64
	}
	if sample == 0 {
		return kc.KeySize()
	}
	total := 0
	for i := 0; i < sample; i++ {
		if isVar {
			total += vc.KeyBytes(entries[i].Key)
		} else {
			total += kc.KeySize()
		}
		if withPay {
			total += payloadLenBytes + len(entries[i].Payload)
		}
	}
	est := total / sample
	if est < 1 {
		est = 1
	}
	return est
}

// EncodeEntries appends the wire form of entries to dst and returns the
// extended slice. Layout per entry: key (fixed KeySize bytes, or the
// VarCodec framing), proc (uint32), index (uint32), and — when the codec
// carries payloads — payload length (uint32) followed by the payload
// bytes. The destination is sized exactly once from EntriesWireBytes:
// encoding a message into an empty dst allocates precisely the payload,
// never grow's doubled capacity.
func EncodeEntries[K any](dst []byte, entries []Entry[K], c Codec[K]) []byte {
	need := EntriesWireBytes(entries, c)
	dst = grow(dst, need)
	putEntries(dst, len(dst)-need, entries, c)
	return dst
}

// putEntries writes the wire form of entries into dst from offset off and
// returns the offset after the last byte. dst already has room for all of
// them (EntriesWireBytes), so fixed-width fields and payloads go in by
// offset; only a variable-width key appends, into that reserved room.
// Entries, records too, whose key codec is U64Codec take the word loop.
func putEntries[K any](dst []byte, off int, entries []Entry[K], c Codec[K]) int {
	kc, withPay := keyCodecOf(c)
	if isU64(kc) {
		return putEntryWords(dst, off, any(entries).([]Entry[uint64]), withPay)
	}
	vc, isVar := kc.(VarCodec[K])
	ks := kc.KeySize()
	for i := range entries {
		e := &entries[i]
		if isVar {
			off = len(vc.AppendKey(dst[:off], e.Key))
		} else {
			kc.PutKey(dst[off:], e.Key)
			off += ks
		}
		binary.LittleEndian.PutUint32(dst[off:], e.Proc)
		binary.LittleEndian.PutUint32(dst[off+4:], e.Index)
		off += originBytes
		if withPay {
			binary.LittleEndian.PutUint32(dst[off:], uint32(len(e.Payload)))
			off += payloadLenBytes
			off += copy(dst[off:], e.Payload)
		}
	}
	return off
}

// DecodeEntries parses n entries from b (as written by EncodeEntries) and
// returns the remaining bytes.
func DecodeEntries[K any](b []byte, n int, c Codec[K]) ([]Entry[K], []byte, error) {
	return DecodeEntriesSlab(b, n, c, nil)
}

// DecodeEntriesSlab is DecodeEntries decoding into a slab from pool
// (which may be nil). The TCP transport's read loops pass their link's
// pool so every received chunk reuses a recycled slab; the consumer
// returns it through Message.Release once the entries are copied out.
// Decoded payloads never alias b: they are copied into one block per
// call, since the transport reuses its frame buffer while the decoded
// entries (and their payloads) outlive it. The block is the payloads'
// total; the word loop, which sizes it before it has read every length,
// may add the bytes b holds after the entries, which a frame or a spill
// block never has. A pool whose slabs hold payloads should set Clear, or
// an idle slab keeps its block alive. Entries, records
// too, whose key codec is U64Codec take the word loop, in one pass.
func DecodeEntriesSlab[K any](b []byte, n int, c Codec[K], pool *alloc.SlabPool[Entry[K]]) ([]Entry[K], []byte, error) {
	kc, withPay := keyCodecOf(c)
	vc, isVar := kc.(VarCodec[K])
	// n comes off the wire: hold it to what b could possibly carry before
	// any slab is sized from it. A variable-width key may encode to as
	// little as nothing, so only its origin (and payload length) counts.
	minBytes := originBytes
	if !isVar {
		minBytes += kc.KeySize()
	}
	if withPay {
		minBytes += payloadLenBytes
	}
	if n < 0 || n > len(b)/minBytes {
		return nil, b, fmt.Errorf("comm: short entry payload: %d bytes cannot hold %d entries", len(b), n)
	}
	if isU64(kc) {
		entries, rest, err := decodeEntryWords(b, n, withPay, any(pool).(*alloc.SlabPool[Entry[uint64]]))
		return any(entries).([]Entry[K]), rest, err
	}
	if !isVar && !withPay {
		ks := kc.KeySize()
		entries := pool.Get(n) // a nil pool falls back to plain allocation
		off := 0
		for i := 0; i < n; i++ {
			entries[i].Key = kc.Key(b[off:])
			entries[i].Payload = nil
			off += ks
			entries[i].Proc = binary.LittleEndian.Uint32(b[off:])
			entries[i].Index = binary.LittleEndian.Uint32(b[off+4:])
			off += originBytes
		}
		return entries, b[off:], nil
	}
	entries := pool.Get(n)
	rest := b
	totalPay := 0
	var err error
	for i := 0; i < n; i++ {
		if isVar {
			if entries[i].Key, rest, err = vc.ReadKey(rest); err != nil {
				break
			}
		} else {
			if len(rest) < kc.KeySize() {
				err = fmt.Errorf("comm: short entry payload at entry %d", i)
				break
			}
			entries[i].Key = kc.Key(rest)
			rest = rest[kc.KeySize():]
		}
		if len(rest) < originBytes {
			err = fmt.Errorf("comm: short entry origin at entry %d", i)
			break
		}
		entries[i].Proc = binary.LittleEndian.Uint32(rest)
		entries[i].Index = binary.LittleEndian.Uint32(rest[4:])
		rest = rest[originBytes:]
		entries[i].Payload = nil
		if withPay {
			if len(rest) < payloadLenBytes {
				err = fmt.Errorf("comm: short payload length at entry %d", i)
				break
			}
			plen := int(binary.LittleEndian.Uint32(rest))
			rest = rest[payloadLenBytes:]
			if plen < 0 || len(rest) < plen {
				err = fmt.Errorf("comm: short payload at entry %d: have %d bytes, need %d", i, len(rest), plen)
				break
			}
			if plen > 0 {
				// Temporarily alias the frame buffer; the fix-up below
				// copies every payload into one exactly-sized block.
				entries[i].Payload = rest[:plen:plen]
				totalPay += plen
			}
			rest = rest[plen:]
		}
	}
	if err != nil {
		pool.Put(entries)
		return nil, b, err
	}
	if totalPay > 0 {
		block := make([]byte, totalPay)
		pos := 0
		for i := 0; i < n; i++ {
			p := entries[i].Payload
			if len(p) == 0 {
				continue
			}
			copy(block[pos:], p)
			entries[i].Payload = block[pos : pos+len(p) : pos+len(p)]
			pos += len(p)
		}
	}
	return entries, rest, nil
}

// EncodeKeys appends the wire form of keys to dst.
func EncodeKeys[K any](dst []byte, keys []K, c Codec[K]) []byte {
	kc, _ := keyCodecOf(c)
	if vc, ok := kc.(VarCodec[K]); ok {
		need := KeysWireBytes(keys, c)
		dst = grow(dst, need)
		dst = dst[:len(dst)-need]
		for _, k := range keys {
			dst = vc.AppendKey(dst, k)
		}
		return dst
	}
	ks := kc.KeySize()
	need := len(keys) * ks
	dst = grow(dst, need)
	off := len(dst) - need
	for _, k := range keys {
		kc.PutKey(dst[off:], k)
		off += ks
	}
	return dst
}

// DecodeKeys parses n keys from b and returns the remaining bytes.
func DecodeKeys[K any](b []byte, n int, c Codec[K]) ([]K, []byte, error) {
	kc, _ := keyCodecOf(c)
	if vc, ok := kc.(VarCodec[K]); ok {
		// n comes off the wire: reserve no more than b could carry.
		keys := make([]K, 0, min(n, len(b)))
		rest := b
		for i := 0; i < n; i++ {
			k, tail, err := vc.ReadKey(rest)
			if err != nil {
				return nil, b, err
			}
			keys, rest = append(keys, k), tail
		}
		return keys, rest, nil
	}
	ks := kc.KeySize()
	need := n * ks
	if len(b) < need {
		return nil, b, fmt.Errorf("comm: short key payload: have %d bytes, need %d", len(b), need)
	}
	keys := make([]K, n)
	for i := 0; i < n; i++ {
		keys[i] = kc.Key(b[i*ks:])
	}
	return keys, b[need:], nil
}

// payloadLenBytes is the wire size of one entry's payload length prefix.
const payloadLenBytes = 4

// EncodeInts appends int64 metadata values to dst.
func EncodeInts(dst []byte, ints []int64) []byte {
	need := len(ints) * 8
	dst = grow(dst, need)
	off := len(dst) - need
	for _, v := range ints {
		binary.LittleEndian.PutUint64(dst[off:], uint64(v))
		off += 8
	}
	return dst
}

// DecodeInts parses n int64 values from b and returns the remaining bytes.
func DecodeInts(b []byte, n int) ([]int64, []byte, error) {
	need := n * 8
	if len(b) < need {
		return nil, b, fmt.Errorf("comm: short int payload: have %d bytes, need %d", len(b), need)
	}
	ints := make([]int64, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return ints, b[need:], nil
}

// grow extends b by n zero bytes, reallocating if needed. Growing from
// empty sizes the allocation exactly — the transport encodes one message
// per buffer and knows the full payload up front — while appending to
// existing data keeps doubling so incremental encoders (e.g. the Spark
// baseline's shuffle blocks) stay amortized O(n).
func grow(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l < n {
		newCap := l + n
		if l > 0 {
			newCap *= 2
		}
		nb := make([]byte, l+n, newCap)
		copy(nb, b)
		return nb
	}
	return b[:l+n]
}
