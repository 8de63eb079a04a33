package comm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// appendEncodeEntries is the entry encoder as it stood before the
// by-offset one: four appends per record. Tests hold the new encoder to
// its output byte for byte — the wire format did not move.
func appendEncodeEntries[K any](dst []byte, entries []Entry[K], c Codec[K]) []byte {
	kc, withPay := keyCodecOf(c)
	vc, isVar := kc.(VarCodec[K])
	var tmp [originBytes]byte
	for i := range entries {
		e := &entries[i]
		if isVar {
			dst = vc.AppendKey(dst, e.Key)
		} else {
			off := len(dst)
			dst = append(dst, make([]byte, kc.KeySize())...)
			kc.PutKey(dst[off:], e.Key)
		}
		binary.LittleEndian.PutUint32(tmp[:], e.Proc)
		binary.LittleEndian.PutUint32(tmp[4:], e.Index)
		dst = append(dst, tmp[:]...)
		if withPay {
			binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.Payload)))
			dst = append(dst, tmp[:4]...)
			dst = append(dst, e.Payload...)
		}
	}
	return dst
}

func checkEncodeMatchesAppend[K any](t *testing.T, name string, entries []Entry[K], c Codec[K]) {
	t.Helper()
	want := appendEncodeEntries(nil, entries, c)
	if got := EncodeEntries(nil, entries, c); !bytes.Equal(got, want) {
		t.Errorf("%s: EncodeEntries differs from the append encoder (%d vs %d bytes)", name, len(got), len(want))
	}
	// Behind existing bytes, and into a recycled buffer with room to spare.
	prefix := []byte{0xde, 0xad}
	if got := EncodeEntries(bytes.Clone(prefix), entries, c); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
		t.Errorf("%s: appending to existing bytes differs", name)
	}
	roomy := bytes.Repeat([]byte{0xff}, len(want)+64)[:0]
	if got := EncodeEntries(roomy, entries, c); !bytes.Equal(got, want) {
		t.Errorf("%s: encoding into a dirty recycled buffer differs", name)
	}
	m := Message[K]{Entries: entries, Ints: []int64{-1, 7}}
	if got := m.AppendWire(nil, c); !bytes.Equal(got, EncodeInts(bytes.Clone(want), m.Ints)) {
		t.Errorf("%s: Message.AppendWire differs from entries then ints", name)
	}
}

// TestEncodeEntriesMatchesAppendEncoder covers every codec arm over the
// shapes FuzzDecodeEntriesSlab seeds — zero-length and nil payloads,
// empty strings — and random ones.
func TestEncodeEntriesMatchesAppendEncoder(t *testing.T) {
	rec := NewRecordCodec[uint64](U64Codec{})
	recStr := NewRecordCodec[string](StringCodec{})
	checkEncodeMatchesAppend(t, "u64", []Entry[uint64]{{Key: 7, Proc: 1, Index: 2}, {Key: 3, Index: 9}}, U64Codec{})
	checkEncodeMatchesAppend(t, "u64 empty", nil, U64Codec{})
	checkEncodeMatchesAppend(t, "string", []Entry[string]{{Key: "pear", Proc: 2}, {Key: "", Index: 5}}, StringCodec{})
	checkEncodeMatchesAppend(t, "record", []Entry[uint64]{{Key: 1, Payload: []byte("body")}, {Key: 2}, {Key: 3, Payload: []byte{}}}, rec)
	checkEncodeMatchesAppend(t, "record empty", nil, rec)
	checkEncodeMatchesAppend(t, "record string", []Entry[string]{{Key: "", Payload: []byte{0}}, {Key: "kiwi"}}, recStr)

	rng := rand.New(rand.NewSource(20170529))
	for round := 0; round < 200; round++ {
		n := rng.Intn(40)
		u := make([]Entry[uint64], n)
		s := make([]Entry[string], n)
		for i := range u {
			pay := make([]byte, rng.Intn(4)*rng.Intn(70))
			rng.Read(pay)
			key := make([]byte, rng.Intn(12))
			rng.Read(key)
			u[i] = Entry[uint64]{Key: rng.Uint64(), Payload: pay, Proc: rng.Uint32(), Index: rng.Uint32()}
			s[i] = Entry[string]{Key: string(key), Payload: pay, Proc: u[i].Proc, Index: u[i].Index}
		}
		checkEncodeMatchesAppend(t, "random record", u, rec)
		checkEncodeMatchesAppend(t, "random record string", s, recStr)
		checkEncodeMatchesAppend(t, "random string", s, StringCodec{})
		checkEncodeMatchesAppend(t, "random u64", u, U64Codec{})
	}
}

// TestWireBytesSizedOnce: the first WireBytes is the message's size for
// good — the transport, the codec and the engine's accounting read one
// figure per send.
func TestWireBytesSizedOnce(t *testing.T) {
	c := NewRecordCodec[uint64](U64Codec{})
	m := Message[uint64]{Entries: []Entry[uint64]{{Key: 1, Payload: make([]byte, 10)}}, Keys: []uint64{4}, Ints: []int64{5}}
	want := EntriesWireBytes(m.Entries, c) + KeysWireBytes(m.Keys, c) + 8
	if got := m.WireBytes(c); got != want {
		t.Fatalf("WireBytes = %d, want %d", got, want)
	}
	sent := m // what Send receives: a copy carrying the figure
	if got := sent.WireBytes(c); got != want {
		t.Fatalf("copy's WireBytes = %d, want %d", got, want)
	}
	if got := len(sent.AppendWire(nil, c)); got != want {
		t.Fatalf("AppendWire wrote %d bytes, WireBytes says %d", got, want)
	}
	var empty Message[uint64]
	for ask := 1; ask <= 2; ask++ {
		if got := empty.WireBytes(c); got != 0 {
			t.Fatalf("empty message, ask %d: %d bytes", ask, got)
		}
	}
}

// TestDecodeKeysBoundsClaim: a key count off the wire must not size an
// allocation the bytes behind it could not fill.
func TestDecodeKeysBoundsClaim(t *testing.T) {
	wire := EncodeKeys(nil, []string{"a", ""}, StringCodec{})
	if _, _, err := DecodeKeys(wire, 1<<31-1, StringCodec{}); err == nil {
		t.Fatal("2^31-1 keys decoded from 9 bytes")
	}
	keys, rest, err := DecodeKeys(wire, 2, StringCodec{})
	if err != nil || len(rest) != 0 || len(keys) != 2 || keys[0] != "a" || keys[1] != "" {
		t.Fatalf("round trip: %q, %d bytes left, err %v", keys, len(rest), err)
	}
}
