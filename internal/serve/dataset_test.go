package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"testing"
	"testing/iotest"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
)

// TestDatasetCrossShapeCacheIdentity sends one dataset through all four
// doors of /v1/sort — octet-stream body, keys_b64, JSON keys and the dist
// spec that generates it. Whatever the shape, the dataset hashes to one
// content address: the first request is the only miss, the other three
// are hits on its entry, and all four answer the same bytes.
func TestDatasetCrossShapeCacheIdentity(t *testing.T) {
	// Resident whatever PGXSORT_MEM_BUDGET clamps the spool threshold to.
	_, ts := testServer(t, Config{SpoolThreshold: -1})
	const n, seed = 3001, 17
	keys := dist.Gen{Kind: dist.Uniform, Seed: seed}.Keys(n)
	raw := keyio.EncodeUint64s(keys)

	resp, first := postBinary(t, ts.URL+"/v1/sort", raw)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pgxsortd-Cache") != "miss" {
		t.Fatalf("octet-stream: status %d, cache %q, want a 200 miss", resp.StatusCode, resp.Header.Get("X-Pgxsortd-Cache"))
	}
	jsonKeys := make([]json.RawMessage, n)
	for i, k := range keys {
		jsonKeys[i] = json.RawMessage(strconv.FormatUint(k, 10))
	}
	for _, shape := range []struct {
		name string
		body map[string]any
	}{
		{"keys_b64", map[string]any{"keys_b64": base64.StdEncoding.EncodeToString(raw)}},
		{"keys", map[string]any{"keys": jsonKeys}},
		{"dist", map[string]any{"dist": map[string]any{"kind": "uniform", "n": n, "seed": seed}}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/sort", shape.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", shape.name, resp.StatusCode, body)
		}
		var sr sortResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("%s: decode: %v", shape.name, err)
		}
		if !sr.Cached {
			t.Fatalf("%s: missed the cache entry the octet-stream body filled", shape.name)
		}
		if got, _ := base64.StdEncoding.DecodeString(sr.KeysB64); !bytes.Equal(got, first) {
			t.Fatalf("%s: answer differs from the octet-stream answer", shape.name)
		}
	}
	_, exposition := getBody(t, ts.URL+"/metrics")
	for name, want := range map[string]float64{
		"pgxsortd_cache_misses_total": 1,
		"pgxsortd_cache_hits_total":   3,
		"pgxsortd_cache_entries":      1,
	} {
		if got := metricValue(t, exposition, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestIngestStreamingHash pins why the hash can be taken from the wire:
// for every key type, a body hashed as it streams through ingest — whole,
// or one byte per Read, so every key straddles a read — has the content
// address hashJob gives its canonical bytes, and so do the same keys
// arriving typed.
func TestIngestStreamingHash(t *testing.T) {
	srv, _ := testServer(t, Config{})
	bodies := map[dist.KeyType][]byte{
		dist.KeyUint64:  keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 1}.Keys(5000)),
		dist.KeyFloat64: keyio.EncodeFloat64s([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, math.Inf(-1), math.Float64frombits(0x7ff8000000000123)}),
		dist.KeyString:  keyio.EncodeStrings(append(dist.Gen{Kind: dist.Uniform, Seed: 2}.Strings(700, "k"), "", "\x00\xff")),
	}
	for kt, raw := range bodies {
		b := srv.backends[kt]
		want := hashJob(kt, raw)
		whole, apiErr := b.ingest(bytes.NewReader(raw), int64(len(raw)), "")
		if apiErr != nil {
			t.Fatalf("%s: ingest: %v", kt, apiErr)
		}
		trickled, apiErr := b.ingest(iotest.OneByteReader(bytes.NewReader(raw)), -1, "")
		if apiErr != nil {
			t.Fatalf("%s: one-byte ingest: %v", kt, apiErr)
		}
		for name, ds := range map[string]*dataset{"whole": whole, "one byte per read": trickled} {
			if ds.hash != want {
				t.Errorf("%s (%s): streaming hash differs from hashJob", kt, name)
			}
			if ds.size != len(raw) || ds.spool != "" {
				t.Errorf("%s (%s): size %d spool %q, want %d resident", kt, name, ds.size, ds.spool, len(raw))
			}
		}
	}
	// Typed arrival: the generator's keys, never on the wire as bytes.
	g := dist.Gen{Kind: dist.Normal, Seed: 8}
	if ds := srv.backends[dist.KeyUint64].generate(g, 999, ""); ds.hash != hashJob(dist.KeyUint64, keyio.EncodeUint64s(g.Keys(999))) {
		t.Error("generated dataset's hash differs from hashJob of its canonical bytes")
	}
}

// TestIngestPresize: a fixed-width body of announced length gets its key
// slice in one allocation, and an announcement larger than the server
// would ever hold resident is not believed.
func TestIngestPresize(t *testing.T) {
	srv, _ := testServer(t, Config{SpoolThreshold: 4 << 10, MaxKeys: 100_000, SpillDir: t.TempDir()})
	b := srv.backends[dist.KeyUint64]
	raw := keyio.EncodeUint64s(dist.Gen{Seed: 3}.Keys(300))
	for _, tc := range []struct {
		name    string
		length  int64
		spool   string
		wantCap int
	}{
		{"honest", int64(len(raw)), "unused.spool", 300},
		{"lying, spool threshold caps", 1 << 40, "unused.spool", (4 << 10) / 8},
		{"lying, only MaxKeys caps", 1 << 40, "", 100_000},
		{"unknown", -1, "", 0},
	} {
		ds, apiErr := b.ingest(bytes.NewReader(raw), tc.length, tc.spool)
		if apiErr != nil {
			t.Fatalf("%s: %v", tc.name, apiErr)
		}
		got := cap(ds.keys.([]uint64))
		if tc.wantCap > 0 && got != tc.wantCap {
			t.Errorf("%s: key slice cap %d, want %d", tc.name, got, tc.wantCap)
		}
		if ds.n != 300 {
			t.Errorf("%s: n = %d, want 300", tc.name, ds.n)
		}
	}
	// String keys have no fixed width to divide an announcement by.
	sraw := keyio.EncodeStrings([]string{"a", "bb"})
	if ds, apiErr := srv.backends[dist.KeyString].ingest(bytes.NewReader(sraw), int64(len(sraw)), ""); apiErr != nil || ds.n != 2 {
		t.Fatalf("string ingest: %v, %+v", apiErr, ds)
	}
}

// TestSpooledUploadSkipsCache: an upload that spools never reaches the
// result cache — no probe, no entry — and its dataset carries no hash.
func TestSpooledUploadSkipsCache(t *testing.T) {
	srv, ts := testServer(t, Config{SpoolThreshold: 16 << 10, SpillDir: t.TempDir()})
	raw := keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 5}.Keys(10000)) // 80 KB: spools
	for i := 0; i < 2; i++ {
		resp, _ := postBinary(t, ts.URL+"/v1/sort", raw)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pgxsortd-Spooled") != "true" {
			t.Fatalf("upload %d: status %d, spooled %q", i, resp.StatusCode, resp.Header.Get("X-Pgxsortd-Spooled"))
		}
	}
	_, exposition := getBody(t, ts.URL+"/metrics")
	for _, name := range []string{"pgxsortd_cache_hits_total", "pgxsortd_cache_misses_total", "pgxsortd_cache_entries", "pgxsortd_cache_skipped_total"} {
		if got := metricValue(t, exposition, name); got != 0 {
			t.Errorf("%s = %g after spooled uploads, want 0", name, got)
		}
	}
	path := t.TempDir() + "/probe.spool"
	ds, apiErr := srv.backends[dist.KeyUint64].ingest(bytes.NewReader(raw), int64(len(raw)), path)
	if apiErr != nil {
		t.Fatalf("ingest: %v", apiErr)
	}
	if ds.spool != path || ds.keys != nil || ds.hash != (cacheKey{}) {
		t.Fatalf("spooled dataset = %+v, want the run file and no keys or hash", ds)
	}
}

// TestTopKProcsMatchEngineSplit: /v1/topk reports each entry's
// originating processor, which only means something if the service
// block-distributes exactly like Engine.TopK's other callers. The big
// keys sit where a base+remainder split of 10 keys over 4 processors
// (3,3,2,2) and core.Blocks (2,3,2,3) disagree.
func TestTopKProcsMatchEngineSplit(t *testing.T) {
	const procs = 4
	_, ts := testServer(t, Config{Procs: procs})
	keys := []uint64{1, 2, 900, 3, 4, 800, 5, 700, 6, 7}
	eng, err := core.NewEngine[uint64](core.Options{Procs: procs}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, bottom := range []bool{false, true} {
		want, err := eng.TopK(core.Blocks(keys, procs), 4)
		if bottom {
			want, err = eng.BottomK(core.Blocks(keys, procs), 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/topk", map[string]any{"keys": keys, "k": 4, "bottom": bottom})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("topk: %d: %s", resp.StatusCode, body)
		}
		var tr topkResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Entries) != len(want.Entries) {
			t.Fatalf("bottom=%v: %d entries, want %d", bottom, len(tr.Entries), len(want.Entries))
		}
		for i, e := range want.Entries {
			if got := tr.Entries[i]; got.Key != fmt.Sprint(e.Key) || got.Proc != int(e.Proc) {
				t.Errorf("bottom=%v entry %d = %+v, want key %d from proc %d", bottom, i, got, e.Key, e.Proc)
			}
		}
	}
}
