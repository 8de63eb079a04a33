package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pgxsort"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/serve"
)

const (
	// coldPool is each client's pool of distinct cold bodies. One
	// client's lap of its pool alone is 1.5× the cache, so under LRU a
	// cold body is always evicted before it comes round again: every
	// cold request is a true miss, with hash, probe, put and eviction.
	coldPool = 24
	// hotEvery makes every hotEvery-th request of a client the hot body.
	hotEvery = 4
	// cachePerKey sizes the result cache at 16 bodies (16 MiB at the
	// default 2^17 keys): smaller than one cold pool, far larger than
	// the hot body and the cold bodies posted between two hot requests.
	cachePerKey = 16 * 8
)

// body is one request payload and the response bytes it must produce.
type body struct {
	raw  []byte // canonical little-endian keys, unsorted
	want []byte // keyio.EncodeUint64s of slices.Sort of the keys
}

func makeBody(g dist.Gen, keys int) body {
	k := g.Keys(keys)
	raw := keyio.EncodeUint64s(k)
	slices.Sort(k)
	return body{raw: raw, want: keyio.EncodeUint64s(k)}
}

// serviceWorkload posts octet-stream bodies to POST /v1/sort of a
// serve.Server behind a loopback listener and reads the answers back:
// socket to socket.
type serviceWorkload struct {
	wname   string
	keys    int
	spooled bool // bodies spool to the spill tier; otherwise the mixed hot/cold cache traffic
	ncli    int
	resp    response

	n    int
	tmp  string
	hot  body
	cold [][]body // [client][coldPool], or [0][4] rotating bodies when spooled
	bufs [][]byte // per-client response buffer

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string // the server's private SpillDir

	marked  map[string]float64 // /metrics at mark()
	exactAt map[string]float64 // /metrics after the deterministic warm-up of a fresh server
}

func (w *serviceWorkload) name() string     { return w.wname }
func (w *serviceWorkload) defaultKeys() int { return w.keys }
func (w *serviceWorkload) clients() int     { return w.ncli }

func (w *serviceWorkload) response() response { return w.resp }

func (w *serviceWorkload) prepare(seed uint64, keys int, tmp string) error {
	w.n, w.tmp = keys, tmp
	gen := func(i int) dist.Gen { return dist.Gen{Kind: dist.Uniform, Seed: seed + uint64(i), Domain: wideDomain} }
	pool := coldPool
	if w.spooled {
		pool = 4
	}
	w.hot = makeBody(gen(0), keys)
	for c := 0; c < w.ncli; c++ {
		bodies := make([]body, pool)
		for j := range bodies {
			bodies[j] = makeBody(gen(1+c*pool+j), keys)
		}
		w.cold = append(w.cold, bodies)
		w.bufs = append(w.bufs, make([]byte, keys*8))
	}
	return nil
}

func (w *serviceWorkload) setup() error {
	dir, err := os.MkdirTemp(w.tmp, "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	cfg := serve.Config{Procs: procs, Workers: workers, KeyTypes: []dist.KeyType{dist.KeyUint64}, SpillDir: dir}
	if w.spooled {
		cfg.MemoryBudget = int64(w.n) * 8 / 2
		cfg.SpoolThreshold = int64(w.n) * 8 / 2
	} else {
		cfg.MemoryBudget = -1
		cfg.CacheBytes = int64(w.n) * cachePerKey
	}
	w.srv, err = serve.New(cfg)
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.ncli + 1, DisableCompression: true}}
	return nil
}

func (w *serviceWorkload) teardown() error {
	if w.srv == nil {
		return nil
	}
	w.client.CloseIdleConnections()
	w.ts.Close()
	err := w.srv.Close()
	w.srv, w.ts, w.client = nil, nil, nil
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// warm posts the hot body twice (a miss that fills the cache, then a
// hit) and one cold body; spooled workloads just run their first
// operations. On a fresh server this sequence is the same for a given
// seed, so the counters it leaves are exact.
func (w *serviceWorkload) warm(i int) opOutcome {
	var out opOutcome
	switch {
	case w.spooled:
		out = w.op(0, i, nil)
	case i < 2:
		out = w.post(0, w.hot, i == 1, nil, -1-i)
	default:
		out = w.post(0, w.cold[0][coldPool-1], false, nil, -1-i)
	}
	if i == warmupOps-1 && !out.failed {
		snap, err := w.scrape()
		if err != nil {
			return failedOp(w.n, out.wall, "scrape /metrics: %v", err)
		}
		w.exactAt = snap
	}
	return out
}

func (w *serviceWorkload) op(client, i int, tr *tracer) opOutcome {
	pool := w.cold[client]
	if w.spooled {
		return w.post(client, pool[i%len(pool)], false, tr, i)
	}
	if i%hotEvery == hotEvery-1 {
		return w.post(client, w.hot, true, tr, i)
	}
	return w.post(client, pool[(i-i/hotEvery)%len(pool)], false, tr, i)
}

// post sends one body and reads the whole answer. The operation's time
// runs from before the request is written until the last response byte
// (and the trailer) has been read.
func (w *serviceWorkload) post(client int, b body, hot bool, tr *tracer, opID int) opOutcome {
	out := opOutcome{keys: w.n, hot: hot}
	req, err := http.NewRequest(http.MethodPost,
		w.ts.URL+"/v1/sort?key_type=uint64&tenant=c"+strconv.Itoa(client), bytes.NewReader(b.raw))
	if err != nil {
		return failedOp(w.n, 0, "request: %v", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var firstByte time.Time
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	root := tr.begin("op", -1, opID)
	defer tr.end(root)
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return failedOp(w.n, time.Since(t0), "post: %v", err)
	}
	buf := w.bufs[client]
	got, rerr := io.ReadFull(resp.Body, buf[:min(len(buf), len(b.want))])
	var extra [1]byte
	over, eofErr := resp.Body.Read(extra[:])
	end := time.Now()
	resp.Body.Close()
	out.wall = end.Sub(t0)
	if tr != nil && !firstByte.IsZero() {
		out.ttfb, out.download = firstByte.Sub(t0), end.Sub(firstByte)
		tr.add("http.ttfb", root, opID, t0, firstByte)
		tr.add("http.download", root, opID, firstByte, end)
	}
	if resp.StatusCode != http.StatusOK {
		return failedOp(w.n, out.wall, "status %d: %s", resp.StatusCode, strings.TrimSpace(string(buf[:got])))
	}
	if rerr != nil || over != 0 || eofErr != io.EOF {
		return failedOp(w.n, out.wall, "response length differs from the reference (%d bytes read: %v, %v)", got, rerr, eofErr)
	}
	if !bytes.Equal(buf[:got], b.want) {
		return failedOp(w.n, out.wall, "response bytes differ from the reference")
	}
	out.jobID = resp.Header.Get("X-Pgxsortd-Job")
	out.hit = resp.Header.Get("X-Pgxsortd-Cache") == "hit"
	if peak := resp.Trailer.Get("X-Pgxsortd-Temp-Peak"); peak != "" {
		out.tempPeak, _ = strconv.ParseInt(peak, 10, 64)
	}
	// Wrong pipeline is a failure, not a flattering number: spooled
	// answers must say so and resident ones must not, and outside the
	// first fill a hot body must hit and a cold one must miss.
	if sp := resp.Header.Get("X-Pgxsortd-Spooled") == "true"; sp != w.spooled {
		return failedOp(w.n, out.wall, "wrong pipeline: X-Pgxsortd-Spooled=%v", sp)
	}
	if opID >= 0 && out.hit != hot {
		return failedOp(w.n, out.wall, "wrong pipeline: cache hit=%v on a request expected hot=%v", out.hit, hot)
	}
	return out
}

// scrape reads GET /metrics into a map keyed by "name" or "name{labels}".
func (w *serviceWorkload) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

func (w *serviceWorkload) mark() error {
	snap, err := w.scrape()
	w.marked = snap
	return err
}

// jobLine is the part of a GET /debug/jobs record the metrics use.
type jobLine struct {
	ID          string  `json:"id"`
	AdmitWaitMS float64 `json:"admit_wait_ms"`
	Stages      []struct {
		StartMS float64 `json:"start_ms"`
		EndMS   float64 `json:"end_ms"`
	} `json:"stages"`
}

func (w *serviceWorkload) jobs() (map[string]jobLine, error) {
	resp, err := w.client.Get(w.ts.URL + "/debug/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs []jobLine `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := make(map[string]jobLine, len(doc.Jobs))
	for _, j := range doc.Jobs {
		out[j.ID] = j
	}
	return out, nil
}

func (w *serviceWorkload) layerR(outs []opOutcome, m *metrics) error {
	now, err := w.scrape()
	if err != nil {
		return err
	}
	jobs, err := w.jobs()
	if err != nil {
		return err
	}
	delta := func(key string) float64 { return now[key] - w.marked[key] }

	var miss, hit, ttfb, download, engine, admit, peaks []float64
	ops, runs, hotReqs, hotHits := 0, 0, 0, 0
	for _, o := range outs {
		ops++
		if o.failed {
			continue
		}
		if o.hot {
			hotReqs++
		}
		if o.hit {
			if o.hot {
				hotHits++
			}
		} else {
			runs++
		}
		if !o.traced {
			continue
		}
		if o.hit {
			hit = append(hit, ms(o.wall))
		} else {
			miss = append(miss, ms(o.wall))
		}
		ttfb = append(ttfb, ms(o.ttfb))
		download = append(download, ms(o.download))
		if o.tempPeak > 0 {
			peaks = append(peaks, float64(o.tempPeak)/(1<<20))
		}
		// The job log keeps the newest 256 jobs; older traced
		// operations simply contribute no sample.
		if j, ok := jobs[o.jobID]; ok && len(j.Stages) > 0 {
			engine = append(engine, j.Stages[len(j.Stages)-1].EndMS-j.Stages[0].StartMS)
			admit = append(admit, j.AdmitWaitMS)
		}
	}
	if runs == 0 || ops == 0 {
		return fmt.Errorf("no successful engine run in the traced window")
	}
	for _, step := range pipelineSteps {
		m.set("core.step_"+step.metric+"_ms", delta(`pgxsortd_step_seconds_total{step="`+step.label+`"}`)/float64(runs)*1000)
	}
	m.set("core.merge_overlap_saved_ms", delta("pgxsortd_merge_overlap_saved_seconds_total")/float64(runs)*1000)
	m.set("transport.send_stall_ms", delta("pgxsortd_transport_send_stall_seconds_total")/float64(runs)*1000)
	m.set("transport.frames_resent", delta("pgxsortd_transport_frames_resent_total"))
	m.set("alloc.temp_peak_mb", now["pgxsortd_mem_peak_bytes"]/(1<<20))

	m.set("serve.miss_p50_ms", median(miss))
	m.set("serve.hit_p50_ms", median(hit))
	if hotReqs > 0 {
		m.set("serve.hit_share", float64(hotHits)/float64(hotReqs))
	}
	m.set("serve.ttfb_p50_ms", median(ttfb))
	m.set("serve.download_p50_ms", median(download))
	m.set("serve.engine_p50_ms", median(engine))
	m.set("serve.admit_wait_p50_ms", median(admit))
	m.set("serve.temp_peak_mb", median(peaks))
	refused := 0.0
	for key, v := range now {
		if strings.HasPrefix(key, `pgxsortd_jobs_total{endpoint="sort",status="429"`) {
			refused += v - w.marked[key]
		}
	}
	m.set("serve.http_429", refused/float64(ops))
	m.set("serve.spooled_jobs", delta("pgxsortd_spooled_jobs_total")/float64(ops))

	// Exact counts come from the warm-up of the fresh server, which is
	// the same three requests for a given seed however long the window.
	x := w.exactAt
	warmRuns, warmKeys := 2.0, 2.0*float64(w.n) // hot fill + one cold body
	if w.spooled {
		warmRuns, warmKeys = warmupOps, warmupOps*float64(w.n)
	}
	m.set("comm.wire_bytes_per_key", x["pgxsortd_comm_bytes_total"]/warmKeys)
	m.set("comm.msgs_per_op", x["pgxsortd_comm_msgs_total"]/warmRuns)
	m.set("spill.bytes_per_key", x["pgxsortd_spill_bytes_total"]/warmKeys)
	if x["pgxsortd_spill_bytes_total"] > 0 {
		m.set("spill.read_amp", x["pgxsortd_spill_read_bytes_total"]/x["pgxsortd_spill_bytes_total"])
	}

	direct, err := w.directSortMS()
	if err != nil {
		return err
	}
	m.set("serve.overhead_ms", median(miss)-direct)
	return nil
}

// directSortMS is the median time of Cluster.Sort on the keys of this
// workload's cold bodies: what the engine alone costs, without socket,
// decode, hash, cache, governor, admission and encode.
func (w *serviceWorkload) directSortMS() (float64, error) {
	c, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: procs, WorkersPerProc: workers, MemoryBudget: -1})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var times []float64
	for i := 0; i < 8; i++ {
		keys, err := keyio.DecodeUint64s(w.cold[0][i%len(w.cold[0])].raw)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := c.SortSlice(keys); err != nil {
			return 0, err
		}
		if i >= warmupOps {
			times = append(times, ms(time.Since(t0)))
		}
	}
	return median(times), nil
}

func (w *serviceWorkload) replayInput() replayInput {
	raw := w.cold[0][0].raw
	flat, _ := keyio.DecodeUint64s(raw)
	r := replayInput{transport: pgxsort.TransportChan, flat: flat, body: raw, spill: w.spooled,
		codec: comm.Codec[uint64](comm.U64Codec{})}
	for p := 0; p < procs; p++ {
		lo, hi := p*len(flat)/procs, (p+1)*len(flat)/procs
		share := make([]comm.Entry[uint64], hi-lo)
		for i, k := range flat[lo:hi] {
			share[i] = comm.Entry[uint64]{Key: k, Proc: uint32(p), Index: uint32(i)}
		}
		r.shares = append(r.shares, share)
	}
	return r
}
