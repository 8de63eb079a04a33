package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
)

// TestSpooledBinarySort uploads a body many times the spool threshold
// and the engine memory budget: the job must spool, stream back chunked,
// and stay byte-identical to a resident sort of the same keys — with the
// tracker-accounted temp peak riding the trailer and staying far under
// the dataset size.
func TestSpooledBinarySort(t *testing.T) {
	spillDir := t.TempDir()
	_, ts := testServer(t, Config{
		SpoolThreshold: 16 << 10,
		MemoryBudget:   64 << 10,
		SpillDir:       spillDir,
	})

	const n = 200_000 // 1.6MB raw, 100x the spool threshold
	rng := dist.NewRNG(41)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 50_000 // heavy ties
	}
	raw := keyio.EncodeUint64s(keys)

	resp, body := postBinary(t, ts.URL+"/v1/sort", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Pgxsortd-Spooled"); h != "true" {
		t.Fatalf("X-Pgxsortd-Spooled = %q, want true", h)
	}
	if h := resp.Header.Get("X-Pgxsortd-Cache"); h != "bypass" {
		t.Fatalf("X-Pgxsortd-Cache = %q, want bypass", h)
	}
	if h := resp.Header.Get("X-Pgxsortd-N"); h != strconv.Itoa(n) {
		t.Fatalf("X-Pgxsortd-N = %q, want %d", h, n)
	}

	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	want := keyio.EncodeUint64s(sorted)
	if !slices.Equal(body, want) {
		t.Fatalf("spooled response diverges from resident sort (%d vs %d bytes)", len(body), len(want))
	}

	// The trailer carries the engine's measured temp peak: nonzero,
	// bounded by per-node budget times procs plus fixed slack (decoded
	// block slabs, merge batch), and strictly under the raw dataset —
	// the proof nothing stayed resident.
	peakStr := resp.Trailer.Get("X-Pgxsortd-Temp-Peak")
	peak, err := strconv.ParseInt(peakStr, 10, 64)
	if err != nil {
		t.Fatalf("X-Pgxsortd-Temp-Peak trailer %q: %v", peakStr, err)
	}
	ceiling := int64(2*4*(64<<10) + 1<<20) // 2 x procs x MemoryBudget + slack
	if peak <= 0 || peak > ceiling {
		t.Fatalf("temp peak %d, want in (0, %d]", peak, ceiling)
	}
	if peak >= int64(len(raw)) {
		t.Fatalf("temp peak %d not under the %d-byte upload — nothing was out of core", peak, len(raw))
	}

	// The upload spool and all engine scratch are gone.
	waitForEmptyDir(t, spillDir)

	_, exp := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, exp, "pgxsortd_spooled_jobs_total"); v < 1 {
		t.Fatalf("pgxsortd_spooled_jobs_total = %g, want >= 1", v)
	}
	if v := metricValue(t, exp, "pgxsortd_mem_peak_bytes"); int64(v) < peak {
		t.Fatalf("pgxsortd_mem_peak_bytes = %g, want >= trailer peak %d", v, peak)
	}
}

// TestSpooledJobSchedTrace: a spooled job's /debug/jobs record carries
// its scheduler trace like a resident job's — the local-sort span (run
// formation) and the merge span, which ends when the stream was closed,
// after the local sort started.
func TestSpooledJobSchedTrace(t *testing.T) {
	_, ts := testServer(t, Config{
		SpoolThreshold: 16 << 10,
		MemoryBudget:   64 << 10,
		SpillDir:       t.TempDir(),
	})
	raw := keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 43}.Keys(50_000))
	resp, body := postBinary(t, ts.URL+"/v1/sort", raw)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pgxsortd-Spooled") != "true" {
		t.Fatalf("status %d, spooled %q: %.200s", resp.StatusCode, resp.Header.Get("X-Pgxsortd-Spooled"), body)
	}
	_, jobs := getBody(t, ts.URL+"/debug/jobs")
	var out struct {
		Jobs []jobRecord `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(jobs), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != resp.Header.Get("X-Pgxsortd-Job") {
		t.Fatalf("job log after one spooled job: %+v", out.Jobs)
	}
	spans := map[string]stageSpan{}
	for _, sp := range out.Jobs[0].Stages {
		spans[sp.Stage] = sp
	}
	local, okLocal := spans[core.StageLocalSort.String()]
	merge, okMerge := spans[core.StageMerge.String()]
	if !okLocal || !okMerge {
		t.Fatalf("spooled job's record lists stages %+v, want local-sort and merge spans", out.Jobs[0].Stages)
	}
	if local.EndMS < local.StartMS || merge.StartMS < local.EndMS || merge.EndMS <= local.StartMS {
		t.Fatalf("local-sort span [%v, %v], merge span [%v, %v]: the merge must end after the local sort starts",
			local.StartMS, local.EndMS, merge.StartMS, merge.EndMS)
	}
}

// TestSpooledBinarySortStrings covers the variable-width codec through
// the same spooled round trip.
func TestSpooledBinarySortStrings(t *testing.T) {
	spillDir := t.TempDir()
	_, ts := testServer(t, Config{
		SpoolThreshold: 8 << 10,
		MemoryBudget:   64 << 10,
		SpillDir:       spillDir,
		KeyTypes:       []dist.KeyType{dist.KeyString},
	})

	const n = 20_000
	rng := dist.NewRNG(43)
	keys := make([]string, n)
	alpha := "abcdefghijklmnop"
	for i := range keys {
		b := []byte("prefixxx____")
		for j := 8; j < len(b); j++ {
			b[j] = alpha[rng.Uint64()%16]
		}
		keys[i] = string(b)
	}
	raw := keyio.EncodeStrings(keys)

	resp, body := postBinary(t, ts.URL+"/v1/sort?key_type=string", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Pgxsortd-Spooled"); h != "true" {
		t.Fatalf("X-Pgxsortd-Spooled = %q, want true", h)
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	if want := keyio.EncodeStrings(sorted); !slices.Equal(body, want) {
		t.Fatalf("spooled string response diverges from resident sort")
	}
	waitForEmptyDir(t, spillDir)
}

// TestOversizedBodies413 checks both request shapes answer 413 — not
// 400 — when the body trips MaxBytesReader or the key-count limit.
func TestOversizedBodies413(t *testing.T) {
	_, ts := testServer(t, Config{MaxKeys: 8, KeyTypes: []dist.KeyType{dist.KeyUint64}})

	// JSON: a body past the byte limit dies inside MaxBytesReader while
	// the decoder is mid-stream; that is "too large", not "bad request".
	bigJSON := `{"keys_b64":"` + strings.Repeat("AAAA", 300_000) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(bigJSON))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: status %d, want 413", resp.StatusCode)
	}

	// Binary: the streaming ingest counts keys as they decode and
	// refuses past MaxKeys without reading the rest.
	raw := keyio.EncodeUint64s(make([]uint64, 9))
	bresp, body := postBinary(t, ts.URL+"/v1/sort", raw)
	if bresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary body: status %d: %s", bresp.StatusCode, body)
	}
}

// TestSlowClientUpload408 stalls an octet-stream upload mid-body past
// the per-read deadline: the server must answer 408 instead of holding
// the connection and its spool slot.
func TestSlowClientUpload408(t *testing.T) {
	_, ts := testServer(t, Config{
		UploadTimeout: 150 * time.Millisecond,
		KeyTypes:      []dist.KeyType{dist.KeyUint64},
	})

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/sort HTTP/1.1\r\nHost: test\r\nContent-Type: application/octet-stream\r\nContent-Length: 800\r\n\r\n")
	conn.Write(make([]byte, 16)) // two keys, then silence

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("reading response line: %v", err)
	}
	if !strings.Contains(status, "408") {
		t.Fatalf("stalled upload answered %q, want 408", strings.TrimSpace(status))
	}
}

// TestSpoolDisconnectNoOrphans cuts the connection after the upload has
// crossed the spool threshold: the half-written spool must be closed —
// its file given back to the engine's pool, which closes it with the
// server — leaving the spill dir empty and no descriptor open under it.
func TestSpoolDisconnectNoOrphans(t *testing.T) {
	spillDir := t.TempDir()
	srv, ts := testServer(t, Config{
		SpoolThreshold: 4 << 10,
		SpillDir:       spillDir,
		KeyTypes:       []dist.KeyType{dist.KeyUint64},
	})
	disconnectMidUpload(t, ts.Listener.Addr().String())
	waitForEmptyDir(t, spillDir)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for descriptorsUnder(spillDir) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open under the spill dir after Close: the spool was never closed", descriptorsUnder(spillDir))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// disconnectMidUpload starts an octet-stream upload of 1 MiB, sends
// 64 KiB of it — well past any spool threshold the tests set — and
// vanishes.
func disconnectMidUpload(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fmt.Fprintf(conn, "POST /v1/sort HTTP/1.1\r\nHost: test\r\nContent-Type: application/octet-stream\r\nContent-Length: 1048576\r\n\r\n")
	conn.Write(keyio.EncodeUint64s(make([]uint64, 8192)))
	time.Sleep(50 * time.Millisecond)
	conn.Close()
}

// descriptorsUnder counts this process's descriptors open on files under
// dir, unlinked ones included; 0 where the system does not list them (no
// /proc/self/fd).
func descriptorsUnder(dir string) int {
	fds, _ := os.ReadDir("/proc/self/fd")
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestSpillDirListsNothing samples the spill dir without pause
// throughout a spooled job and throughout an upload cut off after it
// crossed the spool threshold: no sample may see an entry. Upload spools
// are engine scratch files, with no name from the moment they exist. A
// warm-up job first leaves the engine's pool a file for every one the
// sampled job and the cut upload take, so none is created under the
// sampler — creation is the one instant a scratch file has a name.
func TestSpillDirListsNothing(t *testing.T) {
	spillDir := t.TempDir()
	_, ts := testServer(t, Config{
		SpoolThreshold: 16 << 10,
		MemoryBudget:   64 << 10,
		SpillDir:       spillDir,
		KeyTypes:       []dist.KeyType{dist.KeyUint64},
	})
	keys := dist.Gen{Kind: dist.Uniform, Seed: 13}.Keys(100_000) // 800 KB: spools, and its runs merge in passes
	raw := keyio.EncodeUint64s(keys)
	slices.Sort(keys)
	want := keyio.EncodeUint64s(keys)
	sort := func(what string) {
		t.Helper()
		resp, body := postBinary(t, ts.URL+"/v1/sort", raw)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pgxsortd-Spooled") != "true" || !slices.Equal(body, want) {
			t.Fatalf("%s: status %d, spooled %q, %d bytes (want %d, sorted)", what, resp.StatusCode,
				resp.Header.Get("X-Pgxsortd-Spooled"), len(body), len(want))
		}
	}
	sort("warm-up job")

	stop := make(chan struct{})
	sampled := make(chan [2]int)
	go func() {
		samples, seen := 0, 0
		for {
			select {
			case <-stop:
				sampled <- [2]int{samples, seen}
				return
			default:
			}
			ents, _ := os.ReadDir(spillDir)
			samples++
			seen = max(seen, len(ents))
		}
	}()
	sort("sampled job")
	disconnectMidUpload(t, ts.Listener.Addr().String())
	time.Sleep(50 * time.Millisecond) // the handler unwinds the cut upload
	close(stop)
	if s := <-sampled; s[0] == 0 || s[1] != 0 {
		t.Fatalf("%d samples of the spill dir saw up to %d entries, want none", s[0], s[1])
	}
}

// TestGovernorOversized413 rejects a job whose estimated footprint could
// never fit the governor budget, and the two doors that can say so — the
// resident tail and the spooled upload — must agree: 413, one
// pgxsortd_rejected_total{too_large} count, one /debug/jobs record.
func TestGovernorOversized413(t *testing.T) {
	raw := keyio.EncodeUint64s(make([]uint64, 5000))
	for _, shape := range []struct {
		name string
		cfg  Config
	}{
		{"resident", Config{
			GovernorBudget: residentJobBytes(1000),
			MemoryBudget:   -1, // the resident job's footprint is the subject; keep the env lane from spooling it
		}},
		{"spooled", Config{
			GovernorBudget: spooledJobBytes(8<<10) - 1,
			SpoolThreshold: 8 << 10, // the 40KB body spools
			MemoryBudget:   64 << 10,
			SpillDir:       t.TempDir(),
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			shape.cfg.KeyTypes = []dist.KeyType{dist.KeyUint64}
			_, ts := testServer(t, shape.cfg)
			resp, body := postBinary(t, ts.URL+"/v1/sort", raw)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("over-budget job: status %d: %s", resp.StatusCode, body)
			}
			_, exp := getBody(t, ts.URL+"/metrics")
			if v := metricValue(t, exp, "pgxsortd_mem_budget_bytes"); int64(v) != shape.cfg.GovernorBudget {
				t.Fatalf("pgxsortd_mem_budget_bytes = %g", v)
			}
			if v := metricValue(t, exp, `pgxsortd_rejected_total{reason="too_large"}`); v != 1 {
				t.Fatalf("rejected_total{too_large} = %g, want 1", v)
			}
			if v := metricValue(t, exp, "pgxsortd_mem_inuse_bytes"); v != 0 {
				t.Fatalf("pgxsortd_mem_inuse_bytes = %g after a refused reservation", v)
			}
			_, jobs := getBody(t, ts.URL+"/debug/jobs")
			var out struct {
				Jobs []jobRecord `json:"jobs"`
			}
			if err := json.Unmarshal([]byte(jobs), &out); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if len(out.Jobs) != 1 || out.Jobs[0].Status != http.StatusRequestEntityTooLarge ||
				out.Jobs[0].N != 5000 || out.Jobs[0].Err == "" {
				t.Fatalf("job log after the 413: %+v", out.Jobs)
			}
		})
	}
}

// TestGovernorLedger checks the reservation arithmetic directly:
// admission gating, peak tracking, and release.
func TestGovernorLedger(t *testing.T) {
	g := newGovernor(1000)
	if !g.reserve(600) {
		t.Fatal("first reservation refused")
	}
	if g.reserve(600) {
		t.Fatal("overcommitting reservation admitted")
	}
	if g.oversized(600) {
		t.Fatal("600 of 1000 reported oversized")
	}
	if !g.oversized(1001) {
		t.Fatal("1001 of 1000 not oversized")
	}
	if !g.reserve(400) {
		t.Fatal("exact-fit reservation refused")
	}
	g.release(600)
	g.notePeak(5000)
	inuse, peak, _, budget := g.stats()
	if inuse != 400 || peak != 5000 || budget != 1000 {
		t.Fatalf("stats inuse=%d peak=%d budget=%d", inuse, peak, budget)
	}

	// Unlimited governors admit everything but still track.
	u := newGovernor(0)
	if !u.reserve(1 << 40) {
		t.Fatal("unlimited governor refused a reservation")
	}
	if u.oversized(1 << 40) {
		t.Fatal("unlimited governor reported oversized")
	}
}

// TestCacheEntryCap checks one huge result cannot evict the whole cache
// to store itself: it is skipped and counted.
func TestCacheEntryCap(t *testing.T) {
	c := newResultCache(1024, 8) // per-entry cap: 128 bytes
	key := hashJob("uint64", []byte("big"))
	c.put(key, make([]byte, 512))
	if _, ok := c.get(key); ok {
		t.Fatal("oversized entry was cached")
	}
	_, _, _, skipped, bytes, entries, _ := c.stats()
	if skipped != 1 || bytes != 0 || entries != 0 {
		t.Fatalf("skipped=%d bytes=%d entries=%d, want 1/0/0", skipped, bytes, entries)
	}
	small := hashJob("uint64", []byte("small"))
	c.put(small, make([]byte, 100))
	if _, ok := c.get(small); !ok {
		t.Fatal("under-cap entry was not cached")
	}
}

// waitForEmptyDir polls until dir holds no entries — spool cleanup runs
// in the handler after the response, so a short grace period applies.
func waitForEmptyDir(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		if len(ents) == 0 {
			return
		}
		if time.Now().After(deadline) {
			names := make([]string, len(ents))
			for i, e := range ents {
				names[i] = filepath.Join(dir, e.Name())
			}
			t.Fatalf("orphaned spill-tier files: %v", names)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEnvBudgetResolvesInServeConfig pins the env fallback at the serve
// layer: a daemon budgeted only via PGXSORT_MEM_BUDGET must clamp its
// spool threshold and budget its engines — which size the upload spool's
// blocks by that budget (core's TestEngineSpool: 4 KiB at 64k) — exactly
// as one budgeted through the flag, or uploads land in unbudgeted 128KB
// blocks and the spooled sort's decoded slabs blow the accounted peak.
func TestEnvBudgetResolvesInServeConfig(t *testing.T) {
	t.Setenv(core.MemBudgetEnv, "64k")
	cfg := Config{}.withDefaults()
	if cfg.MemoryBudget != 64<<10 {
		t.Fatalf("MemoryBudget = %d, want %d (from %s)", cfg.MemoryBudget, 64<<10, core.MemBudgetEnv)
	}
	if cfg.SpoolThreshold != 64<<10 {
		t.Fatalf("SpoolThreshold = %d, want clamped to the %d budget", cfg.SpoolThreshold, 64<<10)
	}
	srv, _ := testServer(t, Config{KeyTypes: []dist.KeyType{dist.KeyUint64}})
	if eb := srv.backends[dist.KeyUint64].(*typedBackend[uint64]).eng.Options().MemoryBudget; eb != 64<<10 {
		t.Fatalf("the engine that spools uploads is budgeted %d, want %d", eb, 64<<10)
	}

	// An explicit budget still wins over the env.
	cfg = Config{MemoryBudget: 128 << 10}.withDefaults()
	if cfg.MemoryBudget != 128<<10 {
		t.Fatalf("explicit MemoryBudget = %d, want %d", cfg.MemoryBudget, 128<<10)
	}
}

// TestIngestErrorStatusClass: a failure to read the body is the client's
// (4xx), a failure to write the spool is the server's (5xx) — whatever
// error the disk comes up with.
func TestIngestErrorStatusClass(t *testing.T) {
	diskErr := &os.PathError{Op: "write", Path: "x.spool", Err: syscall.EIO}
	for _, tc := range []struct {
		name string
		got  *apiError
		want int
	}{
		{"body over limit", uploadError(&http.MaxBytesError{Limit: 8}, dist.KeyUint64), http.StatusRequestEntityTooLarge},
		{"stalled client", uploadError(fmt.Errorf("read: %w", os.ErrDeadlineExceeded), dist.KeyUint64), http.StatusRequestTimeout},
		{"cut mid-key", uploadError(keyio.ErrTruncated, dist.KeyUint64), http.StatusBadRequest},
		{"connection reset", uploadError(syscall.ECONNRESET, dist.KeyUint64), http.StatusBadRequest},
		{"spool disk full", spoolError(fmt.Errorf("append: %w", syscall.ENOSPC)), http.StatusInsufficientStorage},
		{"spool write I/O error", spoolError(diskErr), http.StatusInternalServerError},
		{"injected write fault", spoolError(errors.New("failpoint spill/write-block")), http.StatusInternalServerError},
	} {
		if tc.got.status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, tc.got.status, tc.got.msg, tc.want)
		}
	}
}
