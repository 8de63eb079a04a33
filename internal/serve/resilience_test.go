package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/keyio"
	"pgxsort/internal/spill"
)

// TestBreakerStateMachine pins the breaker's transitions: a fatal streak
// opens it at the threshold, the cooldown admits exactly one half-open
// probe, a failed probe re-opens, a successful one closes and resets.
func TestBreakerStateMachine(t *testing.T) {
	br := newBreaker(2, 50*time.Millisecond)
	if br.route() != routeMesh {
		t.Fatal("fresh breaker must route to the mesh")
	}
	br.onFatal()
	if br.route() != routeMesh {
		t.Fatal("one fatal below the threshold must keep the mesh")
	}
	br.onFatal()
	if st, _, opens := br.snapshot(); st != breakerOpen || opens != 1 {
		t.Fatalf("after threshold: state %v opens %d, want open/1", st, opens)
	}
	if br.route() != routeFallback {
		t.Fatal("open breaker must route to the fallback")
	}
	time.Sleep(60 * time.Millisecond)
	if br.route() != routeProbe {
		t.Fatal("after the cooldown one request must probe")
	}
	if br.route() != routeFallback {
		t.Fatal("while a probe is in flight everyone else stays on the fallback")
	}
	br.onFatal() // the probe failed
	if st, _, _ := br.snapshot(); st != breakerOpen {
		t.Fatalf("failed probe left state %v, want open", st)
	}
	time.Sleep(60 * time.Millisecond)
	if br.route() != routeProbe {
		t.Fatal("second probe window never opened")
	}
	br.onSuccess()
	if st, consec, _ := br.snapshot(); st != breakerClosed || consec != 0 {
		t.Fatalf("successful probe left state %v streak %d, want closed/0", st, consec)
	}
	if br.route() != routeMesh {
		t.Fatal("closed breaker must route to the mesh again")
	}

	// A non-fatal probe failure proves nothing: back to open.
	br.onFatal()
	br.onFatal()
	time.Sleep(60 * time.Millisecond)
	if br.route() != routeProbe {
		t.Fatal("probe window after reopen never opened")
	}
	br.onOther()
	if st, _, _ := br.snapshot(); st != breakerOpen {
		t.Fatalf("inconclusive probe left state %v, want open", st)
	}
}

// TestTransientFailureRetriedOverHTTP drives the whole self-healing path
// end to end: a failpoint kills the first engine attempt, the scheduler
// retries, and the client sees a clean 200 — full service, not degraded
// — with the retry visible in /metrics.
func TestTransientFailureRetriedOverHTTP(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{})

	failpoint.Set("core/exchange", failpoint.Schedule{Mode: failpoint.ModeError})
	resp, body := postJSON(t, ts.URL+"/v1/sort", map[string]any{
		"dist":     map[string]any{"kind": "uniform", "n": 20000, "seed": 7},
		"no_cache": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 after a retried transient failure", resp.StatusCode, body)
	}
	var sr sortResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr.Degraded {
		t.Fatal("a retried transient failure must not mark the answer degraded")
	}
	if fired := failpoint.Fired("core/exchange"); fired != 1 {
		t.Fatalf("failpoint fired %d times, want 1", fired)
	}
	_, exposition := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, exposition, "pgxsortd_retries_total"); v < 1 {
		t.Fatalf("pgxsortd_retries_total = %v, want >= 1", v)
	}
	if v := metricValue(t, exposition, `pgxsortd_breaker_state{key_type="uint64"}`); v != 0 {
		t.Fatalf("breaker state %v after a transient failure, want 0 (closed)", v)
	}
}

// TestClientDisconnectAccountedAs499: a client that goes away while its
// job waits for a tenant slot is a client problem, not a server timeout
// — the job log and metrics must say 499, not 504.
func TestClientDisconnectAccountedAs499(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{TenantInflight: 1})

	// Job 1 holds tenant t1's only slot for a while: every exchange
	// failpoint hit sleeps, padding the engine run past the test's
	// cancellation window.
	failpoint.Set("core/exchange", failpoint.Schedule{
		Mode: failpoint.ModeDelay, Delay: 700 * time.Millisecond, Count: -1,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL+"/v1/sort", map[string]any{
			"tenant":   "t1",
			"dist":     map[string]any{"kind": "uniform", "n": 5000, "seed": 1},
			"no_cache": true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slot-holding job: status %d, want 200", resp.StatusCode)
		}
	}()

	// Job 2, same tenant, blocks on the slot; its client disconnects.
	time.Sleep(150 * time.Millisecond)
	body, _ := json.Marshal(map[string]any{
		"tenant":   "t1",
		"dist":     map[string]any{"kind": "uniform", "n": 5000, "seed": 2},
		"no_cache": true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sort", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request unexpectedly completed")
	}

	// The 499 lands once the handler goroutine notices; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, exposition := getBody(t, ts.URL+"/metrics")
		if strings.Contains(exposition, `pgxsortd_jobs_total{endpoint="sort",status="499"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no 499-status job appeared in /metrics after a client disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}
	<-done
}

// door is one way into the service: an endpoint in one request shape.
// post sends its valid request; bad sends one the door must refuse with a
// 4xx before running anything.
type door struct {
	name, endpoint string
	post, bad      func() (*http.Response, []byte)
}

// serviceDoors lists every door of ts: JSON sort, octet-stream sort
// resident and spooled (the server must spool above 16 KB), top-k and
// rank. The three sort doors carry distinct datasets — a result-cache hit
// bypasses the governor and admission, so a repeated body would never
// reach them.
func serviceDoors(t *testing.T, ts *httptest.Server) []door {
	small := keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 4}.Keys(1000))  // 8 KB: resident
	large := keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 5}.Keys(10000)) // 80 KB: spools
	b64 := base64.StdEncoding.EncodeToString(keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 6}.Keys(1000)))
	bin := func(raw []byte) func() (*http.Response, []byte) {
		return func() (*http.Response, []byte) { return postBinary(t, ts.URL+"/v1/sort", raw) }
	}
	js := func(endpoint string, body map[string]any) func() (*http.Response, []byte) {
		return func() (*http.Response, []byte) { return postJSON(t, ts.URL+"/v1/"+endpoint, body) }
	}
	return []door{
		{"sort/json", "sort", js("sort", map[string]any{"keys_b64": b64}), js("sort", map[string]any{"keys_b64": b64, "key_type": "int7"})},
		// A body cut mid-key: resident, and after it crossed into the spool.
		{"sort/octet-stream", "sort", bin(small), bin(small[:len(small)-3])},
		{"sort/octet-stream-spooled", "sort", bin(large), bin(large[:len(large)-3])},
		{"topk", "topk", js("topk", map[string]any{"keys_b64": b64, "k": 3}), js("topk", map[string]any{"keys_b64": b64})},
		{"rank", "rank", js("rank", map[string]any{"keys_b64": b64, "key": "7"}), js("rank", map[string]any{"keys_b64": b64})},
	}
}

// accountedOnce runs one request and holds the service to its exit
// contract: whatever the outcome, the request is counted in exactly one
// pgxsortd_jobs_total series — its endpoint's, under its status — and
// logged as exactly one /debug/jobs record, the newest, which is
// returned.
func accountedOnce(t *testing.T, ts *httptest.Server, label, endpoint string, status int, request func()) jobRecord {
	t.Helper()
	snapshot := func() (total float64, series float64, jobs []jobRecord) {
		_, exposition := getBody(t, ts.URL+"/metrics")
		mine := fmt.Sprintf("pgxsortd_jobs_total{endpoint=%q,status=\"%d\"} ", endpoint, status)
		for _, line := range strings.Split(exposition, "\n") {
			if !strings.HasPrefix(line, "pgxsortd_jobs_total{") {
				continue
			}
			var v float64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v)
			total += v
			if strings.HasPrefix(line, mine) {
				series = v
			}
		}
		_, body := getBody(t, ts.URL+"/debug/jobs")
		var out struct {
			Jobs []jobRecord `json:"jobs"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("%s: /debug/jobs: %v", label, err)
		}
		return total, series, out.Jobs
	}
	total0, series0, jobs0 := snapshot()
	request()
	total1, series1, jobs1 := snapshot()
	if total1 != total0+1 || series1 != series0+1 {
		t.Fatalf("%s: jobs_total moved by %g, its {%s,%d} series by %g; want 1 and 1", label, total1-total0, endpoint, status, series1-series0)
	}
	if len(jobs1) != len(jobs0)+1 {
		t.Fatalf("%s: /debug/jobs grew by %d records, want 1", label, len(jobs1)-len(jobs0))
	}
	rec := jobs1[0]
	if rec.Endpoint != endpoint || rec.Status != status || (rec.Err == "") != (status == http.StatusOK) {
		t.Fatalf("%s: job record %+v, want endpoint %s status %d", label, rec, endpoint, status)
	}
	return rec
}

// TestServeFailpointSites covers the service-layer injection points: an
// armed admission site refuses like a drain (503 + Retry-After) at every
// endpoint behind the front door — both sort shapes, resident and
// spooled, and the two query endpoints — and an armed cache-put site
// silently skips the result-cache insert.
func TestServeFailpointSites(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{SpoolThreshold: 16 << 10, SpillDir: t.TempDir()})

	for _, door := range serviceDoors(t, ts) {
		failpoint.Set("serve/admission", failpoint.Schedule{Mode: failpoint.ModeError})
		accountedOnce(t, ts, door.name+" refused", door.endpoint, http.StatusServiceUnavailable, func() {
			resp, body := door.post()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s: armed admission site: status %d (%s), want 503", door.name, resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s: injected 503 lacks Retry-After", door.name)
			}
		})
		// The schedule fired once; the same request now goes through.
		accountedOnce(t, ts, door.name, door.endpoint, http.StatusOK, func() {
			if resp, body := door.post(); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: after the injection: status %d (%s), want 200", door.name, resp.StatusCode, body)
			} else if spooled := resp.Header.Get("X-Pgxsortd-Spooled") == "true"; spooled != (door.name == "sort/octet-stream-spooled") {
				t.Fatalf("%s: X-Pgxsortd-Spooled = %v", door.name, spooled)
			}
		})
	}

	// Cache-put skip: the first successful sort must NOT be stored, so
	// the identical second request is a miss; the second run's put goes
	// through, making the third a hit.
	failpoint.Set("serve/cache-put", failpoint.Schedule{Mode: failpoint.ModeError})
	job := map[string]any{"dist": map[string]any{"kind": "uniform", "n": 1000, "seed": 3}}
	cached := func(label string) bool {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/sort", job)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", label, resp.StatusCode, body)
		}
		var sr sortResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		return sr.Cached
	}
	if cached("first") {
		t.Fatal("first sort reported cached")
	}
	if cached("second") {
		t.Fatal("second sort hit the cache although the put was injected away")
	}
	if !cached("third") {
		t.Fatal("third sort missed: the uninjected second run must have cached")
	}
}

// TestEveryDoorAccountsOnce takes each door through the outcomes that
// end a request early — refused for what it asked (4xx), shed by a full
// admission queue (429) — and the spooled door through the one that ends
// it late, a read failure after the first body bytes left. Every one of
// them must leave through finish: one count, one record, and an error
// envelope only while the response is still unwritten. (200 and 503 are
// TestServeFailpointSites'.)
func TestEveryDoorAccountsOnce(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	srv, ts := testServer(t, Config{SpoolThreshold: 16 << 10, MemoryBudget: 64 << 10, SpillDir: t.TempDir(), QueueDepth: 1})
	doors := serviceDoors(t, ts)

	for _, door := range doors {
		rec := accountedOnce(t, ts, door.name+" rejected", door.endpoint, http.StatusBadRequest, func() {
			if resp, body := door.bad(); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"error"`) {
				t.Fatalf("%s: bad request: status %d (%s), want a 400 envelope", door.name, resp.StatusCode, body)
			}
		})
		if rec.ID == "" {
			t.Fatalf("%s: rejected request has no job id: %+v", door.name, rec)
		}
	}

	// Hold the whole admission queue: every door now sheds with 429.
	release, st := srv.adm.begin(context.Background(), "hog")
	if st != admitOK {
		t.Fatalf("could not take the admission slot: %v", st)
	}
	for _, door := range doors {
		accountedOnce(t, ts, door.name+" shed", door.endpoint, http.StatusTooManyRequests, func() {
			resp, body := door.post()
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s: full queue: status %d (%s) Retry-After %q, want 429", door.name, resp.StatusCode, body, resp.Header.Get("Retry-After"))
			}
		})
	}
	release()

	// Mid-stream abort: the spill tier starts failing reads the moment
	// the first body bytes are written. The handler can only cut the
	// connection (http.ErrAbortHandler) — and must still account the job,
	// as a 500, without appending an envelope to the half-sent stream.
	large := keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: 7}.Keys(100_000))
	w := &armingWriter{ResponseRecorder: httptest.NewRecorder()}
	accountedOnce(t, ts, "sort/octet-stream-spooled aborted", "sort", http.StatusInternalServerError, func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("handler ended with %v, want the http.ErrAbortHandler panic", p)
			}
		}()
		req := httptest.NewRequest("POST", "/v1/sort", bytes.NewReader(large))
		req.Header.Set("Content-Type", "application/octet-stream")
		srv.ServeHTTP(w, req)
	})
	failpoint.Reset()
	if w.Body.Len() == 0 || w.Body.Len() >= len(large) || bytes.Contains(w.Body.Bytes(), []byte(`"error"`)) {
		t.Fatalf("aborted stream carried %d of %d bytes; want a proper prefix and no envelope", w.Body.Len(), len(large))
	}
}

// armingWriter arms the spill tier's read failpoint at the first body
// write — the earliest moment a spooled response is mid-stream.
type armingWriter struct {
	*httptest.ResponseRecorder
	armed bool
}

func (w *armingWriter) Write(p []byte) (int, error) {
	if !w.armed {
		w.armed = true
		failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Count: -1})
	}
	return w.ResponseRecorder.Write(p)
}

// TestCacheEvictionUnderConcurrentWriters hammers the result cache from
// many goroutines and checks the LRU accounting invariants hold: stored
// bytes never exceed the budget, the byte gauge equals the sum of the
// surviving entries, and evictions actually happened.
func TestCacheEvictionUnderConcurrentWriters(t *testing.T) {
	const budget = 64 << 10
	c := newResultCache(budget, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				size := 512 + rnd.Intn(4096)
				key := hashJob("uint64", []byte(fmt.Sprintf("w%d-i%d", w, i%50)))
				if rnd.Intn(3) == 0 {
					c.get(key)
				} else {
					c.put(key, make([]byte, size))
				}
			}
		}(w)
	}
	wg.Wait()

	hits, misses, evictions, _, bytes, entries, _ := c.stats()
	if bytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", bytes, budget)
	}
	if evictions == 0 {
		t.Fatal("no evictions despite writing far past the budget")
	}
	// The byte gauge must equal the sum over surviving entries.
	c.mu.Lock()
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += int64(len(el.Value.(*cacheEntry).sorted))
	}
	if int64(c.lru.Len()) != entries {
		t.Errorf("lru holds %d entries, stats said %d", c.lru.Len(), entries)
	}
	c.mu.Unlock()
	if sum != bytes {
		t.Fatalf("byte gauge %d != %d bytes actually stored", bytes, sum)
	}
	t.Logf("hits=%d misses=%d evictions=%d bytes=%d entries=%d", hits, misses, evictions, bytes, entries)
}

// TestAdmissionFairnessAcrossTenants: with tenant A's inflight cap
// saturated, A's next job waits — but tenant B's jobs keep flowing
// through the shared queue instead of queueing behind A.
func TestAdmissionFairnessAcrossTenants(t *testing.T) {
	adm := newAdmission(8, 1)

	releaseA1, st := adm.begin(context.Background(), "A")
	if st != admitOK {
		t.Fatalf("A1: %v", st)
	}
	// A2 blocks on A's tenant slot.
	a2done := make(chan admissionStatus, 1)
	go func() {
		release, st := adm.begin(context.Background(), "A")
		if st == admitOK {
			release()
		}
		a2done <- st
	}()
	time.Sleep(50 * time.Millisecond) // let A2 reach the tenant semaphore

	// B sails through while A2 is parked.
	start := time.Now()
	releaseB, st := adm.begin(context.Background(), "B")
	if st != admitOK {
		t.Fatalf("B: %v", st)
	}
	if wait := time.Since(start); wait > 100*time.Millisecond {
		t.Fatalf("tenant B waited %v behind tenant A's backlog", wait)
	}
	releaseB()

	select {
	case <-a2done:
		t.Fatal("A2 admitted while A1 still held the tenant slot")
	default:
	}
	releaseA1()
	select {
	case st := <-a2done:
		if st != admitOK {
			t.Fatalf("A2 after release: %v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A2 never admitted after A1 released its slot")
	}

	// And a saturated queue still answers queue-full immediately.
	var rels []func()
	for {
		release, st := adm.begin(context.Background(), fmt.Sprintf("T%d", len(rels)))
		if st != admitOK {
			if st != admitQueueFull {
				t.Fatalf("saturating queue: %v", st)
			}
			break
		}
		rels = append(rels, release)
	}
	if len(rels) != 8 {
		t.Fatalf("queue admitted %d jobs, capacity 8", len(rels))
	}
	for _, r := range rels {
		r()
	}
}
