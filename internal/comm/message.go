// Package comm defines the message model, key codecs and traffic counters
// shared by the transports and the distributed engines. It plays the role
// of PGX.D's communication manager: a thin, low-overhead layer that moves
// framed messages between processors and accounts every byte, so the
// Figure 9 communication-overhead experiments can be measured rather than
// estimated.
//
// A KData message carries entries, or — for a sort of bare keys under a
// codec whose exact norm has an inverse (KeyDenormalizer, RefDenorm) —
// 16-byte NormRefs, each the key-only entry {Denorm(Norm), Proc, Idx}.
// On the wire a ref is byte for byte that entry; a frame header flag
// (FlagRefs) tells the reader which to decode.
//
// Under U64Codec payload-free entries and refs are encoded and decoded a
// word at a time, with no call through the Codec interface per key.
package comm

import "fmt"

// Kind tags the purpose of a message within the sorting pipeline.
type Kind uint8

const (
	// KSamples carries regular samples from a processor to the master
	// (step 2).
	KSamples Kind = iota + 1
	// KSplitters carries the master's p-1 final splitters (step 3).
	KSplitters
	// KRangeMeta carries a processor's per-destination send counts
	// (step 4->5 metadata broadcast).
	KRangeMeta
	// KData carries a chunk of sorted entries during the all-to-all
	// exchange (step 5).
	KData
	// KControl carries engine-internal control signals (e.g. barrier
	// tokens used by the synchronous-exchange ablation).
	KControl
)

// String returns a short human-readable tag for the kind.
func (k Kind) String() string {
	switch k {
	case KSamples:
		return "samples"
	case KSplitters:
		return "splitters"
	case KRangeMeta:
		return "rangemeta"
	case KData:
		return "data"
	case KControl:
		return "control"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Entry is one record moving through the distributed sort: a key plus its
// origin (the processor and local index it started at). The paper's API
// exposes exactly this provenance: "finding information regards to the
// previous processors and the previous indexes of the new received data
// entry" (§IV-C).
//
// Payload is an opaque value riding with the key — nil for plain key
// sorts, the record body for SortRecords. It never influences the sort
// order; it travels by reference on the in-process transport and is
// serialized length-prefixed on TCP when the engine's codec carries
// payloads (see RecordCodec).
type Entry[K any] struct {
	Key     K
	Payload []byte // opaque record body; nil for key-only sorts
	Proc    uint32 // originating processor
	Index   uint32 // index within the originating processor's input
}

// Record is one key+payload input row for the record-sorting APIs. The
// engine sorts records by key exactly as it sorts bare keys — the payload
// is carried through local sort, exchange assembly and merge untouched.
type Record[K any] struct {
	Key     K
	Payload []byte
}

// Message flags: pipeline signals that ride the existing framing (one
// header byte) rather than needing messages of their own.
const (
	// FlagRunComplete marks the final KData chunk of one source's run in
	// the all-to-all exchange. The receiver can already derive completion
	// from the range metadata counts; the flag is an independent
	// per-source signal layered on the framing, so a count/framing
	// mismatch surfaces as a protocol error instead of silent corruption.
	FlagRunComplete uint8 = 1 << 0
	// FlagRefs marks a KData frame whose entries decode into Message.Refs
	// rather than Message.Entries: the TCP transport sets it on the frame
	// of a message with refs, and its read loop decodes such a frame's
	// entries as refs. A message built in process need not carry it.
	FlagRefs uint8 = 1 << 1
)

// Message is the unit of communication between processors. A message
// carries sorted entries or refs (KData), raw keys (KSamples,
// KSplitters), or integer metadata (KRangeMeta, KControl).
//
// SortID multiplexes several concurrent sorts over one network, which is
// how the library sorts "multiple different data simultaneously".
type Message[K any] struct {
	Src, Dst int
	Kind     Kind
	Flags    uint8 // Flag* bits; zero for most messages
	SortID   int32
	Entries  []Entry[K] // KData payloads
	// Refs is the KData payload of a key-only sort whose codec frames
	// refs (RefDenorm): each ref is the entry {Key: Denorm(Norm), Proc:
	// Proc, Index: Idx}, its Proc the sender's (Src), and a message
	// carries Entries or Refs, never both. On the wire a ref is byte for
	// byte that entry.
	Refs []NormRef
	Keys []K     // KSamples / KSplitters payloads
	Ints []int64 // KRangeMeta / KControl payloads

	// Release, when non-nil, returns the Entries or Refs slab to the pool
	// it was decoded into (set by the TCP transport's read loop). The
	// consumer calls it after copying the data out; leaving it uncalled is
	// safe (the slab is simply garbage collected). The in-process
	// transport never sets it: its Entries and Refs alias the sender's
	// buffers.
	Release func()

	// wire is WireBytes+1 once computed, so one send sizes its message
	// once however many layers ask. A message is built, then sized, then
	// sent: its slices must not change after the first WireBytes.
	wire int
}

// WireBytes returns the message's exact wire size under codec c, used
// both to size TCP frames and for traffic accounting. It is
// transport-independent: the in-process transport moves slices without
// serializing, but for Figure 9 both transports must report identical
// traffic for identical workloads — variable-width keys and record
// payloads included.
func (m *Message[K]) WireBytes(c Codec[K]) int {
	if m.wire == 0 {
		m.wire = 1 + EntriesWireBytes(m.Entries, c) + RefsWireBytes(m.Refs, c) + KeysWireBytes(m.Keys, c) + len(m.Ints)*8
	}
	return m.wire - 1
}

// AppendWire appends the message's payload in wire form — entries or
// refs, keys, ints, as the frame header counts them — to dst, sized from
// WireBytes.
func (m *Message[K]) AppendWire(dst []byte, c Codec[K]) []byte {
	need := m.WireBytes(c)
	dst = grow(dst, need)
	off := putEntries(dst, len(dst)-need, m.Entries, c)
	off = putRefs(dst, off, m.Refs, c)
	return EncodeInts(EncodeKeys(dst[:off], m.Keys, c), m.Ints)
}

// DataLen is how many entries a KData message carries, as entries or as
// refs.
func (m *Message[K]) DataLen() int { return len(m.Entries) + len(m.Refs) }

// originBytes is the wire size of an Entry's provenance (proc + index).
const originBytes = 8
