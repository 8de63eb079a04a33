package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/keyio"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// testServer starts one in-process service over httptest.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Procs == 0 {
		cfg.Procs = 4
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func postBinary(t *testing.T, url string, raw []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(data)
}

func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

func TestSortJSONRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	keys := []any{uint64(9), "3", uint64(1 << 60), uint64(5), "18446744073709551615", uint64(2)}
	resp, body := postJSON(t, ts.URL+"/v1/sort", map[string]any{"keys": keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr sortResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if sr.Cached || sr.N != 6 || sr.JobID == "" {
		t.Fatalf("unexpected response meta: %+v", sr)
	}
	raw, err := base64.StdEncoding.DecodeString(sr.KeysB64)
	if err != nil {
		t.Fatalf("keys_b64: %v", err)
	}
	got, err := keyio.DecodeUint64s(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := []uint64{2, 3, 5, 9, 1 << 60, math.MaxUint64}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if sr.Report == nil || sr.Report.MergePath == "" {
		t.Fatalf("missing report summary: %+v", sr.Report)
	}
}

func TestRepeatedSortHitsCache(t *testing.T) {
	// MemoryBudget -1: under the PGXSORT_MEM_BUDGET lane the spool
	// threshold clamps to the budget and the upload would bypass the cache.
	_, ts := testServer(t, Config{MemoryBudget: -1})
	raw := keyio.EncodeUint64s(dist.Gen{Kind: dist.RightSkewed, Seed: 7}.Keys(5000))
	resp1, body1 := postBinary(t, ts.URL+"/v1/sort?key_type=uint64", raw)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	if h := resp1.Header.Get("X-Pgxsortd-Cache"); h != "miss" {
		t.Fatalf("first submit cache header %q, want miss", h)
	}
	resp2, body2 := postBinary(t, ts.URL+"/v1/sort?key_type=uint64", raw)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-Pgxsortd-Cache"); h != "hit" {
		t.Fatalf("second submit cache header %q, want hit", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit returned different bytes than the engine run")
	}
	_, exposition := getBody(t, ts.URL+"/metrics")
	if hits := metricValue(t, exposition, "pgxsortd_cache_hits_total"); hits != 1 {
		t.Fatalf("cache_hits_total = %g, want 1", hits)
	}
	// no_cache bypasses the cache in both directions.
	resp3, _ := postBinary(t, ts.URL+"/v1/sort?key_type=uint64&no_cache=true", raw)
	if h := resp3.Header.Get("X-Pgxsortd-Cache"); h != "miss" {
		t.Fatalf("no_cache submit cache header %q, want miss", h)
	}
}

func TestConcurrentClientsByteIdenticalToCLIPath(t *testing.T) {
	_, ts := testServer(t, Config{})
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kind := dist.AllKinds[c%len(dist.AllKinds)]
			keys := dist.Gen{Kind: kind, Seed: uint64(c + 1)}.Keys(8000)
			// The CLI path: read keys, sort locally, write canonical
			// bytes. The service must return the same bytes.
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			want := keyio.EncodeUint64s(sorted)

			resp, err := http.Post(ts.URL+fmt.Sprintf("/v1/sort?key_type=uint64&tenant=c%d&no_cache=true", c),
				"application/octet-stream", bytes.NewReader(keyio.EncodeUint64s(keys)))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[c] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, want) {
				errs[c] = fmt.Errorf("client %d: response differs from CLI-path bytes (%d vs %d bytes)", c, len(got), len(want))
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
}

func TestFloatAndStringDomains(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Floats: non-finite values ride as strings; output follows the
	// IEEE-754 total order with NaN above +Inf.
	resp, body := postJSON(t, ts.URL+"/v1/sort", map[string]any{
		"key_type": "float64",
		"keys":     []any{"NaN", 1.5, "-Inf", -0.0, "+Inf", -2.25},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("float sort: %d: %s", resp.StatusCode, body)
	}
	var sr sortResponse
	json.Unmarshal(body, &sr)
	raw, _ := base64.StdEncoding.DecodeString(sr.KeysB64)
	fs, err := keyio.DecodeFloat64s(raw)
	if err != nil {
		t.Fatalf("decode floats: %v", err)
	}
	for i := 1; i < len(fs); i++ {
		if keyio.F64TotalLess(fs[i], fs[i-1]) {
			t.Fatalf("float output not in total order at %d: %v", i, fs)
		}
	}
	if len(fs) != 6 || !math.IsNaN(fs[5]) || !math.IsInf(fs[4], 1) {
		t.Fatalf("float order wrong: %v", fs)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sort", map[string]any{
		"key_type": "string",
		"keys":     []any{"pear", "", "apple", "fig"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("string sort: %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &sr)
	raw, _ = base64.StdEncoding.DecodeString(sr.KeysB64)
	ss, err := keyio.DecodeStrings(raw)
	if err != nil {
		t.Fatalf("decode strings: %v", err)
	}
	if !slices.Equal(ss, []string{"", "apple", "fig", "pear"}) {
		t.Fatalf("string order wrong: %v", ss)
	}
}

func TestDistGeneratedSort(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := map[string]any{
		"dist": map[string]any{"kind": "right-skewed", "n": 4000, "seed": 11},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sort", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist sort: %d: %s", resp.StatusCode, body)
	}
	var sr sortResponse
	json.Unmarshal(body, &sr)
	raw, _ := base64.StdEncoding.DecodeString(sr.KeysB64)
	got, err := keyio.DecodeUint64s(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := dist.Gen{Kind: dist.RightSkewed, Seed: 11}.Keys(4000)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("dist-generated sort differs from local sort of the same generator")
	}
}

func TestTopKAndRank(t *testing.T) {
	_, ts := testServer(t, Config{})
	keys := dist.Gen{Kind: dist.Uniform, Seed: 3}.Keys(10000)
	b64 := base64.StdEncoding.EncodeToString(keyio.EncodeUint64s(keys))

	resp, body := postJSON(t, ts.URL+"/v1/topk", map[string]any{"keys_b64": b64, "k": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: %d: %s", resp.StatusCode, body)
	}
	var tr topkResponse
	json.Unmarshal(body, &tr)
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("%d", sorted[len(sorted)-1-i])
		if tr.Entries[i].Key != want {
			t.Fatalf("topk[%d] = %s, want %s", i, tr.Entries[i].Key, want)
		}
	}
	if tr.BytesSent <= 0 || tr.BytesSent >= int64(8*len(keys)) {
		t.Fatalf("topk traffic %d should be positive and far below the dataset's %d bytes", tr.BytesSent, 8*len(keys))
	}

	resp, body = postJSON(t, ts.URL+"/v1/topk", map[string]any{"keys_b64": b64, "k": 3, "bottom": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bottomk: %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &tr)
	if tr.Entries[0].Key != fmt.Sprintf("%d", sorted[0]) {
		t.Fatalf("bottomk[0] = %s, want %d", tr.Entries[0].Key, sorted[0])
	}

	target := sorted[7500]
	resp, body = postJSON(t, ts.URL+"/v1/rank", map[string]any{"keys_b64": b64, "key": fmt.Sprintf("%d", target)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: %d: %s", resp.StatusCode, body)
	}
	var rr rankResponse
	json.Unmarshal(body, &rr)
	wantRank, wantCount := 0, 0
	for _, k := range keys {
		if k < target {
			wantRank++
		} else if k == target {
			wantCount++
		}
	}
	if rr.Rank != wantRank || rr.Count != wantCount || rr.N != len(keys) {
		t.Fatalf("rank answer %+v, want rank=%d count=%d n=%d", rr, wantRank, wantCount, len(keys))
	}
}

// slowConfig makes every sort take hundreds of milliseconds by delaying
// every engine send 20ms at the core/send failpoint, so admission
// behavior is observable. Under PGXSORT_MEM_BUDGET an upload spools and
// its job sends nothing, so every spill block read is delayed as well:
// a spooled job's merge reads its runs. The registry is cleared when
// the test ends.
func slowConfig(t *testing.T) Config {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	slow := failpoint.Schedule{Mode: failpoint.ModeDelay, Count: -1, Delay: 20 * time.Millisecond}
	failpoint.Set("core/send", slow)
	failpoint.Set(spill.FpReadBlock, slow)
	return Config{Procs: 4, Workers: 2, KeyTypes: []dist.KeyType{dist.KeyUint64}}
}

func TestOverloadAnswers429(t *testing.T) {
	cfg := slowConfig(t)
	cfg.MaxInflight = 1
	cfg.TenantInflight = 1
	cfg.QueueDepth = 2
	_, ts := testServer(t, cfg)

	const submits = 8
	statuses := make([]int, submits)
	retryAfter := make([]string, submits)
	var wg sync.WaitGroup
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := keyio.EncodeUint64s(dist.Gen{Seed: uint64(i + 1)}.Keys(3000))
			resp, err := http.Post(ts.URL+fmt.Sprintf("/v1/sort?tenant=t%d&no_cache=true", i),
				"application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, rejected := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("submit %d: unexpected status %d", i, st)
		}
	}
	if ok == 0 {
		t.Error("no submit succeeded")
	}
	if rejected == 0 {
		t.Errorf("no submit was rejected with 429 (statuses %v); queue depth 2 with 8 concurrent submits must overload", statuses)
	}
	_, exposition := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, exposition, `pgxsortd_rejected_total{reason="queue_full"}`); v == 0 {
		t.Error("rejected_total{queue_full} is zero after 429s")
	}
}

func TestDeadlineCancelsRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{Procs: 4, Workers: 2, KeyTypes: []dist.KeyType{dist.KeyUint64}})
	// One node sits out the deadline inside the sort — after its local
	// sort, or at its first block read when PGXSORT_MEM_BUDGET sends the
	// upload through the spool — so the job is running when the deadline
	// fires, however fast the box is.
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	hold := failpoint.Schedule{Mode: failpoint.ModeDelay, Delay: 250 * time.Millisecond}
	failpoint.Set("core/local-sort", hold)
	failpoint.Set(spill.FpReadBlock, hold)
	raw := keyio.EncodeUint64s(dist.Gen{Seed: 5}.Keys(20000))
	start := time.Now()
	resp, body := postBinary(t, ts.URL+"/v1/sort?deadline_ms=50&no_cache=true", raw)
	failpoint.Reset()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline answer took %v; the job was not cancelled", elapsed)
	}
	// The engine survives the cancellation: a small follow-up sort
	// (generous deadline) completes.
	small := keyio.EncodeUint64s([]uint64{3, 1, 2})
	resp, body = postBinary(t, ts.URL+"/v1/sort", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel sort: %d (%s)", resp.StatusCode, body)
	}
	if got, _ := keyio.DecodeUint64s(body); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("post-cancel sort wrong: %v", got)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, ts := testServer(t, Config{KeyTypes: []dist.KeyType{dist.KeyUint64}})
	if resp, body := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || body != "ready\n" {
		t.Fatalf("readyz before drain: %d %q", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz without Retry-After")
	}
	// healthz keeps answering 200: the process is alive, just not ready.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d", resp.StatusCode)
	}
	raw := keyio.EncodeUint64s([]uint64{2, 1})
	if resp, _ := postBinary(t, ts.URL+"/v1/sort", raw); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sort during drain: %d, want 503", resp.StatusCode)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := testServer(t, Config{MaxKeys: 100})
	cases := []struct {
		name   string
		body   map[string]any
		status int
	}{
		{"no dataset source", map[string]any{}, http.StatusBadRequest},
		{"two sources", map[string]any{"keys": []any{1}, "keys_b64": "AAAAAAAAAAA="}, http.StatusBadRequest},
		{"bad key type", map[string]any{"key_type": "int128", "keys": []any{1}}, http.StatusBadRequest},
		{"bad b64", map[string]any{"keys_b64": "!!!"}, http.StatusBadRequest},
		{"bad canonical bytes", map[string]any{"keys_b64": base64.StdEncoding.EncodeToString([]byte{1, 2, 3})}, http.StatusBadRequest},
		{"bad uint64 key", map[string]any{"keys": []any{"-4"}}, http.StatusBadRequest},
		{"unknown dist kind", map[string]any{"dist": map[string]any{"kind": "zipf", "n": 10}}, http.StatusBadRequest},
		{"oversized dist", map[string]any{"dist": map[string]any{"n": 101}}, http.StatusRequestEntityTooLarge},
		{"unknown field", map[string]any{"keyz": []any{1}}, http.StatusBadRequest},
		{"retired recbytes", map[string]any{"keys": []any{1}, "recbytes": 32}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/sort", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.status)
		}
	}
	// The octet-stream shape refuses the retired parameter too.
	if resp, body := postBinary(t, ts.URL+"/v1/sort?recbytes=32", keyio.EncodeUint64s([]uint64{1, 2})); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("octet-stream ?recbytes=: status %d (%s), want 400", resp.StatusCode, body)
	}
	// topk needs a positive k; rank needs a key.
	b64 := base64.StdEncoding.EncodeToString(keyio.EncodeUint64s([]uint64{1, 2}))
	if resp, _ := postJSON(t, ts.URL+"/v1/topk", map[string]any{"keys_b64": b64}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("topk without k: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/rank", map[string]any{"keys_b64": b64}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("rank without key: %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/rank", map[string]any{"keys_b64": b64, "key": "A"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("rank of a key that is no uint64: %d (%s), want 400", resp.StatusCode, body)
	}
	// Method discipline: the mux answers GET /v1/sort with 405.
	if resp, err := http.Get(ts.URL + "/v1/sort"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sort: %d, want 405", resp.StatusCode)
	}
}

func TestDebugJobsListsNewestFirst(t *testing.T) {
	_, ts := testServer(t, Config{})
	// A refused request is a finished job too: it is listed, oldest here.
	if resp, _ := postBinary(t, ts.URL+"/v1/sort?tenant=probe", []byte("cut mid-key")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: %d, want 400", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		raw := keyio.EncodeUint64s(dist.Gen{Seed: uint64(i + 1)}.Keys(100))
		if resp, _ := postBinary(t, ts.URL+"/v1/sort?tenant=probe&no_cache=true", raw); resp.StatusCode != http.StatusOK {
			t.Fatalf("sort %d: %d", i, resp.StatusCode)
		}
	}
	_, body := getBody(t, ts.URL+"/debug/jobs")
	var out struct {
		Jobs []jobRecord `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Jobs) != 4 {
		t.Fatalf("%d jobs listed, want 4", len(out.Jobs))
	}
	if rej := out.Jobs[3]; rej.Status != http.StatusBadRequest || rej.Err == "" || rej.Tenant != "probe" || rej.KeyType != "uint64" {
		t.Fatalf("refused request's record wrong: %+v", rej)
	}
	if out.Jobs[0].ID <= out.Jobs[1].ID {
		t.Fatalf("jobs not newest-first: %s then %s", out.Jobs[0].ID, out.Jobs[1].ID)
	}
	if out.Jobs[0].Tenant != "probe" || out.Jobs[0].Status != http.StatusOK || out.Jobs[0].N != 100 {
		t.Fatalf("job record wrong: %+v", out.Jobs[0])
	}
	// A resident job passes the four scheduler stages in order; the
	// engine's span is stages[0].start_ms to stages[3].end_ms.
	stages := out.Jobs[0].Stages
	if len(stages) != int(core.NumSchedStages) {
		t.Fatalf("job record lists %d stage spans, want %d: %+v", len(stages), core.NumSchedStages, stages)
	}
	for i, sp := range stages {
		if sp.Stage != core.SchedStage(i).String() || sp.EndMS < sp.StartMS {
			t.Fatalf("stage span %d is %+v, want stage %v with end >= start", i, sp, core.SchedStage(i))
		}
	}
	if stages[0].StartMS > stages[3].EndMS {
		t.Fatalf("engine span runs backwards: starts %v ms, ends %v ms", stages[0].StartMS, stages[3].EndMS)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	raw := keyio.EncodeUint64s(dist.Gen{Seed: 9}.Keys(2000))
	postBinary(t, ts.URL+"/v1/sort", raw)
	_, exposition := getBody(t, ts.URL+"/metrics")
	for _, name := range []string{
		"pgxsortd_up 1",
		`pgxsortd_jobs_total{endpoint="sort",status="200"} 1`,
		"pgxsortd_keys_sorted_total 2000",
		`pgxsortd_step_seconds_total{step="send/recv"}`,
		"pgxsortd_cache_misses_total 1",
		"pgxsortd_admission_queue_capacity 16",
	} {
		if !strings.Contains(exposition, name) {
			t.Errorf("exposition lacks %q", name)
		}
	}
	if v := metricValue(t, exposition, "pgxsortd_comm_bytes_total"); v <= 0 {
		t.Errorf("comm_bytes_total = %g, want > 0", v)
	}
}

func TestExplicitTCPRequiresOneKeyType(t *testing.T) {
	_, err := New(Config{
		Procs:     2,
		Transport: transport.KindTCP,
		TCP:       transport.Config{Listen: []string{"127.0.0.1:0", "127.0.0.1:0"}},
	})
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("expected the one-keytype error, got %v", err)
	}
}

// TestServerCloseLeaksNoGoroutines: after a sort, a spooled upload and a
// top-k, closing the HTTP server and the service leaves no goroutine
// running — no engine worker, sender or spool reader outlives Close.
func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(Config{Procs: 4, Workers: 8, SpoolThreshold: 16 << 10,
		MemoryBudget: 64 << 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	keys := dist.Gen{Kind: dist.Uniform, Seed: 5}.Keys(20_000)
	if resp, body := postJSON(t, ts.URL+"/v1/sort", map[string]any{"keys": []any{uint64(3), uint64(1), uint64(2)}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sort: %d: %s", resp.StatusCode, body)
	}
	resp, body := postBinary(t, ts.URL+"/v1/sort", keyio.EncodeUint64s(keys))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pgxsortd-Spooled") != "true" {
		t.Fatalf("spooled upload: %d, spooled %q: %.200s", resp.StatusCode, resp.Header.Get("X-Pgxsortd-Spooled"), body)
	}
	b64 := base64.StdEncoding.EncodeToString(keyio.EncodeUint64s(keys))
	if resp, body := postJSON(t, ts.URL+"/v1/topk", map[string]any{"keys_b64": b64, "k": 5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: %d: %s", resp.StatusCode, body)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
