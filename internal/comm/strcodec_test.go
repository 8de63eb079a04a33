package comm

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"
)

// String keys must survive the wire bit-exactly, including the cases a
// fixed-width codec cannot represent: empty keys, non-ASCII bytes,
// embedded NULs, and keys far longer than the 8-byte norm prefix.
func TestStringCodecRoundTrip(t *testing.T) {
	c := StringCodec{}
	keys := []string{
		"",
		"a",
		"exactly8",
		"longer-than-eight-bytes",
		strings.Repeat("p", 100) + "tail",
		"züricher-straße",
		"日本語のキー",
		"nul\x00inside",
		"\xff\xfe\x00\x01",
	}
	var buf []byte
	for _, k := range keys {
		buf = c.AppendKey(buf, k)
	}
	rest := buf
	for i, want := range keys {
		before := len(rest)
		var got string
		var err error
		got, rest, err = c.ReadKey(rest)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("key %d: %q != %q", i, got, want)
		}
		if n := before - len(rest); n != c.KeyBytes(want) {
			t.Fatalf("key %d: consumed %d bytes, KeyBytes says %d", i, n, c.KeyBytes(want))
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left unconsumed", len(rest))
	}
}

func TestStringCodecReadKeyTruncated(t *testing.T) {
	c := StringCodec{}
	full := c.AppendKey(nil, "hello-world")
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := c.ReadKey(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestStringCodecFixedEntryPointsPanic(t *testing.T) {
	c := StringCodec{}
	for name, fn := range map[string]func(){
		"PutKey": func() { c.PutKey(make([]byte, 16), "x") },
		"Key":    func() { c.Key(make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a variable-width codec did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Norm must be monotone w.r.t. the key order (k1 < k2 => Norm(k1) <=
// Norm(k2)) and differ only when the first 8 bytes differ.
func TestStringNormMonotone(t *testing.T) {
	c := StringCodec{}
	keys := []string{
		"", "a", "ab", "abcdefgh", "abcdefghi", "abcdefgh\x00", "abcdefghz",
		"b", "prefix-18-bytes-xx", "prefix-18-bytes-xy", "\xff", "\xff\xff",
	}
	sort.Strings(keys)
	for i := 1; i < len(keys); i++ {
		n1, n2 := c.Norm(keys[i-1]), c.Norm(keys[i])
		if n1 > n2 {
			t.Fatalf("Norm not monotone: %q -> %x, %q -> %x", keys[i-1], n1, keys[i], n2)
		}
	}
	// Shared 8-byte prefixes collapse onto one norm — the collision the
	// engine's fallback pass exists for.
	if c.Norm("prefix-18-bytes-xx") != c.Norm("prefix-18-bytes-xy") {
		t.Fatal("keys sharing an 8-byte prefix should share a norm")
	}
	if c.Norm("abcdefgh") != c.Norm("abcdefghzzz") {
		t.Fatal("key equal to another's 8-byte prefix should share its norm")
	}
	// Within 8 bytes, distinct keys get distinct norms.
	if c.Norm("abc") == c.Norm("abd") || c.Norm("a") == c.Norm("ab") {
		t.Fatal("short distinct keys should have distinct norms")
	}
	var inexact interface{ NormInexact() bool } = c
	if !inexact.NormInexact() {
		t.Fatal("StringCodec must report an inexact norm")
	}
}

// Entries with string keys round-trip through the wire encoding, payloads
// included, and a single key near the frame cap still fits exactly.
func TestStringEntriesWireAndFrameCap(t *testing.T) {
	c := StringCodec{}
	entries := []Entry[string]{
		{Key: "", Proc: 1, Index: 2},
		{Key: "with-a-longer-key-than-the-norm", Proc: 3, Index: 4},
		{Key: "中文", Proc: 5, Index: 6},
	}
	buf := EncodeEntries(nil, entries, c)
	if len(buf) != EntriesWireBytes(entries, c) {
		t.Fatalf("encoded %d bytes, EntriesWireBytes says %d", len(buf), EntriesWireBytes(entries, c))
	}
	got, rest, err := DecodeEntries[string](buf, len(entries), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d undecoded bytes", len(rest))
	}
	for i := range entries {
		if got[i].Key != entries[i].Key || got[i].Proc != entries[i].Proc || got[i].Index != entries[i].Index {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}

	// A maximum-length key: one entry whose wire size lands exactly on a
	// small frame cap passes CheckFrame; one byte more trips it.
	const maxFrame = 1 << 12
	keyLen := maxFrame - originBytes - 4 // u32 length prefix
	fit := []Entry[string]{{Key: strings.Repeat("k", keyLen)}}
	if n := EntriesWireBytes(fit, c); n != maxFrame {
		t.Fatalf("wire size %d, want exactly %d", n, maxFrame)
	}
	if err := CheckFrame(EntriesWireBytes(fit, c), maxFrame); err != nil {
		t.Fatalf("frame-filling key rejected: %v", err)
	}
	over := []Entry[string]{{Key: strings.Repeat("k", keyLen+1)}}
	if err := CheckFrame(EntriesWireBytes(over, c), maxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized key not rejected: %v", err)
	}
	// The encoded bytes of the frame-filling key still decode.
	buf = EncodeEntries(nil, fit, c)
	back, _, err := DecodeEntries[string](buf, 1, c)
	if err != nil || back[0].Key != fit[0].Key {
		t.Fatalf("max-frame key did not round-trip: %v", err)
	}
}

// Record-codec-wrapped string entries carry payloads on the wire.
func TestStringRecordCodecPayloadRoundTrip(t *testing.T) {
	rc := NewRecordCodec[string](StringCodec{})
	entries := []Entry[string]{
		{Key: "k1", Proc: 0, Index: 0, Payload: []byte("p-one")},
		{Key: "", Proc: 1, Index: 1, Payload: nil},
		{Key: "k3", Proc: 2, Index: 2, Payload: bytes.Repeat([]byte{0xab}, 300)},
	}
	buf := EncodeEntries(nil, entries, rc)
	got, _, err := DecodeEntries[string](buf, len(entries), rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if got[i].Key != entries[i].Key || !bytes.Equal(got[i].Payload, entries[i].Payload) {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

// Keys (the splitter broadcasts) round-trip for variable-width codecs.
func TestStringKeysWire(t *testing.T) {
	c := StringCodec{}
	keys := []string{"", "splitter-a", "splitter-b-with-more-bytes", "日本"}
	buf := EncodeKeys(nil, keys, c)
	if len(buf) != KeysWireBytes(keys, c) {
		t.Fatalf("encoded %d bytes, KeysWireBytes says %d", len(buf), KeysWireBytes(keys, c))
	}
	got, rest, err := DecodeKeys[string](buf, len(keys), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d undecoded bytes", len(rest))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %q != %q", i, got[i], keys[i])
		}
	}
}

// EntriesFitting is the longest prefix EntriesWireBytes says fits — for a
// fixed-width, a variable-width and a payload-carrying codec, at every
// room from nothing to more than the whole batch.
func TestEntriesFittingMatchesWireBytes(t *testing.T) {
	strs := []Entry[string]{{Key: ""}, {Key: "a-longer-key"}, {Key: "中文"}, {Key: "z"}}
	recs := []Entry[uint64]{{Key: 1, Payload: []byte("body")}, {Key: 2}, {Key: 3, Payload: make([]byte, 40)}}
	checkFitting(t, recs, Codec[uint64](U64Codec{})) // payloads do not ride this codec
	checkFitting(t, strs, Codec[string](StringCodec{}))
	checkFitting(t, recs, Codec[uint64](NewRecordCodec[uint64](U64Codec{})))
}

func checkFitting[K any](t *testing.T, entries []Entry[K], c Codec[K]) {
	t.Helper()
	for room := -1; room <= EntriesWireBytes(entries, c)+1; room++ {
		n := EntriesFitting(entries, c, room)
		if n < 0 || n > len(entries) || EntriesWireBytes(entries[:n], c) > max(room, 0) ||
			n < len(entries) && EntriesWireBytes(entries[:n+1], c) <= room {
			t.Fatalf("%T room %d: EntriesFitting = %d", c, room, n)
		}
	}
}
