package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
)

// The HTTP surface. Request and response schemas are documented in
// docs/API.md; this file is their single implementation.

// StatusClientClosedRequest is nginx's 499: the client went away before
// the answer existed. Distinguishing it from 504 keeps deadline alerts
// honest — a disconnecting client is not a slow server.
const StatusClientClosedRequest = 499

// The service-layer failpoint sites (see internal/failpoint): fpAdmission
// refuses a job at the front door exactly like a drain would, fpCachePut
// drops the result-cache insert after a successful sort. Both use
// HitNoPanic — an unwind inside an HTTP handler would be swallowed by
// net/http's recover and hide the injection.
const (
	fpAdmission = "serve/admission"
	fpCachePut  = "serve/cache-put"
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort", s.handleSort)
	mux.HandleFunc("POST /v1/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/rank", s.handleRank)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/jobs", s.handleJobs)
	return mux
}

// apiError is a request that produced no answer — malformed, turned away
// at the front door or failed in the engine: the HTTP status and the
// message for the error envelope and the job log.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeError emits the JSON error envelope, with Retry-After on the
// backpressure statuses (429 queue full, 503 draining).
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// distSpec asks the server to synthesize a deterministic dataset instead
// of uploading one (see internal/dist).
type distSpec struct {
	Kind   string `json:"kind"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed"`
	Domain uint64 `json:"domain,omitempty"`
	Prefix string `json:"prefix,omitempty"` // string keys only
}

// sortRequest is the JSON body shared by /v1/sort, /v1/topk and
// /v1/rank. Exactly one of Keys, KeysB64 or Dist supplies the dataset.
type sortRequest struct {
	Tenant     string            `json:"tenant,omitempty"`
	KeyType    string            `json:"key_type,omitempty"`
	Keys       []json.RawMessage `json:"keys,omitempty"`
	KeysB64    string            `json:"keys_b64,omitempty"`
	Dist       *distSpec         `json:"dist,omitempty"`
	DeadlineMS int64             `json:"deadline_ms,omitempty"`
	NoCache    bool              `json:"no_cache,omitempty"`

	K      int    `json:"k,omitempty"`      // /v1/topk
	Bottom bool   `json:"bottom,omitempty"` // /v1/topk
	Key    string `json:"key,omitempty"`    // /v1/rank
}

// reportSummary is the engine-facing slice of one sort's Report that
// rides in the JSON response.
type reportSummary struct {
	EngineMS    float64 `json:"engine_ms"`
	BytesSent   int64   `json:"bytes_sent"`
	MsgsSent    int64   `json:"msgs_sent"`
	MergePath   string  `json:"merge"`
	AdmitWaitMS float64 `json:"admit_wait_ms"`
}

type sortResponse struct {
	JobID     string         `json:"job_id"`
	KeyType   string         `json:"key_type"`
	N         int            `json:"n"`
	Cached    bool           `json:"cached"`
	Degraded  bool           `json:"degraded,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
	KeysB64   string         `json:"keys_b64"`
	Report    *reportSummary `json:"report,omitempty"`
}

type topkEntry struct {
	Key  string `json:"key"`
	Proc int    `json:"proc"`
}

type topkResponse struct {
	JobID     string      `json:"job_id"`
	KeyType   string      `json:"key_type"`
	N         int         `json:"n"`
	K         int         `json:"k"`
	Bottom    bool        `json:"bottom"`
	Entries   []topkEntry `json:"entries"`
	BytesSent int64       `json:"bytes_sent"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

type rankResponse struct {
	JobID     string  `json:"job_id"`
	KeyType   string  `json:"key_type"`
	Key       string  `json:"key"`
	Rank      int     `json:"rank"`
	Count     int     `json:"count"`
	N         int     `json:"n"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// maxBody bounds request bodies: the canonical encodings spend at most
// 16 bytes per small key, plus slack for JSON framing.
func (s *Server) maxBody() int64 {
	return int64(s.cfg.MaxKeys)*24 + 1<<20
}

// decodeRequest parses the shared JSON body into req. A body over the
// byte limit is 413, not 400 — the JSON is not malformed, it is too big,
// and the client should hear the same status the binary shape answers.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req *sortRequest) *apiError {
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds the %d-byte limit", mbe.Limit)}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

// binarySortRequest reads the octet-stream shape's query parameters into
// req.
func binarySortRequest(r *http.Request, req *sortRequest) *apiError {
	q := r.URL.Query()
	req.Tenant = q.Get("tenant")
	req.KeyType = q.Get("key_type")
	req.NoCache = q.Get("no_cache") == "true"
	if v := q.Get("deadline_ms"); v != "" {
		d, err := strconv.ParseInt(v, 10, 64)
		if err != nil || d < 0 {
			return badRequest("deadline_ms: %q is not a non-negative integer", v)
		}
		req.DeadlineMS = d
	}
	if q.Has("recbytes") {
		// Same answer the JSON shape gives the retired field.
		return badRequest("recbytes is not supported: the service sorts keys only")
	}
	return nil
}

// resolveDataset turns a JSON request's dataset source into a dataset.
func (s *Server) resolveDataset(b backend, req *sortRequest) (*dataset, *apiError) {
	sources := 0
	if req.Keys != nil {
		sources++
	}
	if req.KeysB64 != "" {
		sources++
	}
	if req.Dist != nil {
		sources++
	}
	if sources != 1 {
		return nil, badRequest("supply exactly one of keys, keys_b64 or dist (got %d)", sources)
	}
	var ds *dataset
	switch {
	case req.Keys != nil:
		var err error
		ds, err = b.fromJSON(req.Keys)
		if err != nil {
			return nil, badRequest("%v", err)
		}
	case req.KeysB64 != "":
		raw, err := base64.StdEncoding.DecodeString(req.KeysB64)
		if err != nil {
			return nil, badRequest("keys_b64: %v", err)
		}
		// The same parser an octet-stream body goes through, never
		// spooling: the request already holds the bytes.
		var apiErr *apiError
		ds, apiErr = b.ingest(bytes.NewReader(raw), int64(len(raw)), false)
		if apiErr != nil {
			return nil, &apiError{apiErr.status, "keys_b64: " + apiErr.msg}
		}
	default:
		spec := req.Dist
		if spec.N <= 0 {
			return nil, badRequest("dist.n must be positive")
		}
		if spec.N > s.cfg.MaxKeys {
			return nil, &apiError{http.StatusRequestEntityTooLarge, fmt.Sprintf("dist.n %d exceeds the %d-key limit", spec.N, s.cfg.MaxKeys)}
		}
		kind := dist.Uniform
		if spec.Kind != "" {
			var err error
			kind, err = dist.ParseKind(spec.Kind)
			if err != nil {
				return nil, badRequest("dist.kind: %v", err)
			}
		}
		ds = b.generate(dist.Gen{Kind: kind, Seed: spec.Seed, Domain: spec.Domain}, spec.N, spec.Prefix)
	}
	if ds.n > s.cfg.MaxKeys {
		return nil, &apiError{http.StatusRequestEntityTooLarge, fmt.Sprintf("%d keys exceeds the %d-key limit", ds.n, s.cfg.MaxKeys)}
	}
	return ds, nil
}

// job is one request from open to finish: who asked, for what, through
// which door, and the dataset it brought. Every endpoint's accounting —
// pgxsortd_jobs_total, the /debug/jobs record, the error envelope —
// happens in finish and nowhere else.
type job struct {
	s        *Server
	w        http.ResponseWriter
	id       string
	endpoint string // "sort", "topk" or "rank"
	binary   bool   // the octet-stream shape of /v1/sort
	start    time.Time
	req      sortRequest
	b        backend  // nil until the key domain resolved
	ds       *dataset // nil until the dataset resolved
	sent     int64    // response body bytes streamed through Write
}

// open is the prologue every endpoint shares: mint the job, parse the
// request in whichever shape it came, resolve its key domain, and decode
// its dataset — once. A request that fails any of it is answered and
// accounted here, and open returns nil.
func (s *Server) open(w http.ResponseWriter, r *http.Request, endpoint string) *job {
	j := &job{s: s, w: w, id: s.jobID(), endpoint: endpoint, start: time.Now()}
	j.binary = endpoint == "sort" && strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream")
	if apiErr := j.load(r); apiErr != nil {
		j.reject(apiErr)
		return nil
	}
	return j
}

// load fills in the job's request, backend and dataset, in that order,
// stopping at the first that cannot be had.
func (j *job) load(r *http.Request) *apiError {
	var apiErr *apiError
	if j.binary {
		apiErr = binarySortRequest(r, &j.req)
	} else {
		apiErr = j.s.decodeRequest(j.w, r, &j.req)
	}
	if apiErr != nil {
		return apiErr
	}
	if j.b, apiErr = j.s.backendFor(j.req.KeyType); apiErr != nil {
		return apiErr
	}
	if j.binary {
		// Streaming ingress: the body decodes as it arrives and never
		// accumulates whole — past the spool threshold it lands in the
		// engine's scratch files instead.
		j.ds, apiErr = j.s.ingestBinary(j.w, r, j.b)
	} else {
		j.ds, apiErr = j.s.resolveDataset(j.b, &j.req)
	}
	return apiErr
}

// Write streams response body bytes, counting them: once any are on the
// wire an error status can no longer be sent, and finish knows it.
func (j *job) Write(p []byte) (int, error) {
	n, err := j.w.Write(p)
	j.sent += int64(n)
	return n, err
}

// finish is the one exit: it counts the request, logs it, and — when it
// failed before any body byte left — answers with the error envelope.
func (j *job) finish(status int, err error, cached bool, rep *core.Report) {
	elapsed := time.Since(j.start)
	j.s.met.jobDone(j.endpoint, strconv.Itoa(status), elapsed)
	j.s.jobs.add(newJobRecord(j, status, err, cached, elapsed, rep))
	if err != nil && j.sent == 0 {
		j.s.writeError(j.w, status, err.Error())
	}
}

// fail finishes a job that was turned away or died in the engine.
func (j *job) fail(e *apiError) { j.finish(e.status, e, false, nil) }

// reject fails a request refused for what it asked, counting why.
func (j *job) reject(apiErr *apiError) {
	switch apiErr.status {
	case http.StatusBadRequest:
		j.s.met.reject("bad_request")
	case http.StatusRequestEntityTooLarge:
		j.s.met.reject("too_large")
	case http.StatusRequestTimeout:
		j.s.met.reject("slow_client")
	case http.StatusInsufficientStorage:
		j.s.met.reject("spool_disk_full")
	}
	j.fail(apiErr)
}

// jobCtx applies the effective deadline: the request's deadline_ms,
// clamped to Config.JobTimeout.
func (s *Server) jobCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.JobTimeout
	if deadlineMS > 0 && time.Duration(deadlineMS)*time.Millisecond < d {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// admit is the one front door every job — sort, spooled sort, top-k, rank
// — passes before it may use an engine: draining check, the
// serve/admission failpoint, the effective deadline, then the bounded
// queue and the tenant's slot. On success it returns the job's context
// and a release func the caller must defer; otherwise why not (a full
// queue is counted in pgxsortd_rejected_total here, once for every door).
func (s *Server) admit(r *http.Request, req *sortRequest) (context.Context, func(), *apiError) {
	// Counting into jobsWG before re-checking draining closes the race
	// with Close: either Close sees our count and waits, or we see its
	// draining flag and refuse.
	s.jobsWG.Add(1)
	ctx, cancel := s.jobCtx(r, req.DeadlineMS)
	refuse := func(status int, format string, args ...any) (context.Context, func(), *apiError) {
		cancel()
		s.jobsWG.Done()
		return nil, nil, &apiError{status, fmt.Sprintf(format, args...)}
	}
	if s.draining.Load() {
		return refuse(http.StatusServiceUnavailable, "server is draining")
	}
	if ferr := failpoint.HitNoPanic(fpAdmission); ferr != nil {
		return refuse(http.StatusServiceUnavailable, "admission refused: %v", ferr)
	}
	release, st := s.adm.begin(ctx, req.Tenant)
	switch st {
	case admitQueueFull:
		s.met.reject("queue_full")
		return refuse(http.StatusTooManyRequests, "admission queue is full; retry later")
	case admitDeadline:
		if errors.Is(ctx.Err(), context.Canceled) {
			return refuse(StatusClientClosedRequest, "client went away waiting for tenant slot: %v", ctx.Err())
		}
		return refuse(http.StatusGatewayTimeout, "deadline expired waiting for tenant slot: %v", ctx.Err())
	}
	s.met.jobStart()
	return ctx, func() {
		s.met.jobEnd()
		release()
		cancel()
		s.jobsWG.Done()
	}, nil
}

// reserve claims a job's estimated resident footprint from the governor's
// ledger before it runs, shedding load when the ledger is full. It returns
// the release func the caller must defer, or why not: 413 for a footprint
// that could never fit, 429 for one that does not fit right now — both
// counted in pgxsortd_rejected_total here, once for every door.
func (s *Server) reserve(need int64) (func(), *apiError) {
	if s.gov.oversized(need) {
		s.met.reject("too_large")
		return nil, &apiError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("job needs ~%d bytes resident, over the %d-byte memory budget", need, s.cfg.GovernorBudget)}
	}
	if !s.gov.reserve(need) {
		s.met.reject("mem_budget")
		return nil, &apiError{http.StatusTooManyRequests, "memory budget exhausted; retry later"}
	}
	return func() { s.gov.release(need) }, nil
}

// handleSort runs one sort job. Two request shapes share the endpoint:
// JSON (sortRequest) and application/octet-stream, whose body is the
// canonical keyio encoding and whose options ride in query parameters.
// The octet-stream shape answers with the canonical sorted bytes —
// byte-identical to what `pgxsort sort` writes to disk.
func (s *Server) handleSort(w http.ResponseWriter, r *http.Request) {
	j := s.open(w, r, "sort")
	if j == nil {
		return
	}
	if j.ds.spool != nil {
		defer j.ds.spool.Close()
		s.sortSpooled(j, r)
		return
	}

	// Cache probe: hits bypass admission entirely — a cached answer
	// costs no engine capacity, so overload must not refuse it.
	if !j.req.NoCache {
		if sorted, ok := s.cache.get(j.ds.hash); ok {
			j.finish(http.StatusOK, nil, true, nil)
			j.writeSorted(sorted, true, false, nil)
			return
		}
	}

	// Governor: a resident job holds its decoded keys, entry slabs and
	// encoded result in this process.
	release, jerr := s.reserve(residentJobBytes(j.ds.n))
	if jerr != nil {
		j.fail(jerr)
		return
	}
	defer release()

	sorted, rep, degraded, jerr := s.runSort(r, j)
	if jerr != nil {
		j.fail(jerr)
		return
	}
	s.gov.notePeak(rep.TempPeakBytes)
	if !j.req.NoCache {
		if ferr := failpoint.HitNoPanic(fpCachePut); ferr == nil {
			s.cache.put(j.ds.hash, sorted)
		}
	}
	j.finish(http.StatusOK, nil, false, &rep)
	j.writeSorted(sorted, false, degraded, &rep)
}

// sortSpooled takes one spooled upload through admission and streams
// the sorted answer chunked, straight off the final-merge cursor. The
// spooled path never touches the mesh — the spool formed its runs at
// ingest and merging reads them on this node — so there is no breaker
// to consult and no single-node fallback to degrade to. The result
// cache is bypassed too: an answer too big to hold resident is exactly
// the answer a byte-budgeted cache must not store, which is why ingest
// stopped hashing the body the moment it spooled.
func (s *Server) sortSpooled(j *job, r *http.Request) {
	s.gov.noteSpooled()
	release, jerr := s.reserve(spooledJobBytes(s.cfg.SpoolThreshold))
	if jerr != nil {
		j.fail(jerr)
		return
	}
	defer release()

	ctx, done, jerr := s.admit(r, &j.req)
	if jerr != nil {
		j.fail(jerr)
		return
	}
	defer done()

	h := j.w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Pgxsortd-Job", j.id)
	h.Set("X-Pgxsortd-N", strconv.Itoa(j.ds.n))
	h.Set("X-Pgxsortd-Cache", "bypass")
	h.Set("X-Pgxsortd-Spooled", "true")
	// The measured peak only exists after the stream ends, so it rides a
	// trailer; announce it before the first body write.
	h.Set("Trailer", "X-Pgxsortd-Temp-Peak")
	rep, err := j.b.sortSpooledTo(ctx, j.ds, j)
	if err != nil {
		if j.sent == 0 {
			// Nothing on the wire yet: unstage the success headers and
			// answer with a real error status.
			for _, k := range []string{"Trailer", "X-Pgxsortd-Job", "X-Pgxsortd-N", "X-Pgxsortd-Cache", "X-Pgxsortd-Spooled"} {
				h.Del(k)
			}
			j.fail(sortStatus(err))
			return
		}
		// Mid-stream failure: 200 is already on the wire, so cutting the
		// connection is the only honest signal left to the client.
		j.finish(http.StatusInternalServerError, err, false, nil)
		panic(http.ErrAbortHandler)
	}
	h.Set("X-Pgxsortd-Temp-Peak", strconv.FormatInt(rep.TempPeakBytes, 10))
	s.gov.notePeak(rep.TempPeakBytes)
	s.met.absorb(&rep)
	j.finish(http.StatusOK, nil, false, &rep)
}

// runSort takes one resident dataset through admission and the engine.
// degraded reports the job ran on the single-node fallback because the
// keytype's breaker considers the mesh dead (or it died under this very
// job and the fallback rescued the answer in-request).
func (s *Server) runSort(r *http.Request, j *job) (sorted []byte, rep core.Report, degraded bool, jerr *apiError) {
	ctx, done, jerr := s.admit(r, &j.req)
	if jerr != nil {
		return nil, rep, false, jerr
	}
	defer done()

	b := j.b
	br := s.breakers[b.keyType()]
	canFallback := s.cfg.FallbackKeys >= 0 && j.ds.n <= s.cfg.FallbackKeys
	route := br.route()
	if route == routeFallback && canFallback {
		sorted, rep, err := b.sortSingle(ctx, j.ds)
		if err != nil {
			return nil, rep, false, sortStatus(err)
		}
		s.met.degradedJob()
		s.met.absorb(&rep)
		return sorted, rep, true, nil
	}

	// Mesh path: routeMesh, routeProbe — and routeFallback for a job too
	// large to degrade, which has nowhere to go but the mesh.
	sorted, rep, err := b.sort(ctx, j.ds)
	if err == nil {
		br.onSuccess()
		s.met.absorb(&rep)
		return sorted, rep, false, nil
	}
	class := core.Classify(err)
	s.met.failure(class)
	if class == core.FailFatal {
		br.onFatal()
		if canFallback && ctx.Err() == nil {
			// The mesh died under this job. Rescue it in-request on the
			// fallback instead of making the client eat a 500 and resubmit.
			if fsorted, frep, ferr := b.sortSingle(ctx, j.ds); ferr == nil {
				s.met.degradedJob()
				s.met.absorb(&frep)
				return fsorted, frep, true, nil
			}
		}
	} else if route == routeProbe {
		br.onOther()
	}
	return nil, rep, false, sortStatus(err)
}

// sortStatus maps one engine failure onto its HTTP status.
func sortStatus(err error) *apiError {
	switch {
	case errors.Is(err, context.Canceled):
		return &apiError{StatusClientClosedRequest, fmt.Sprintf("client closed request: %v", err)}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{http.StatusGatewayTimeout, fmt.Sprintf("job deadline exceeded: %v", err)}
	}
	return &apiError{http.StatusInternalServerError, fmt.Sprintf("sort failed: %v", err)}
}

// writeSorted renders a finished sort in the shape the request used.
func (j *job) writeSorted(sorted []byte, cached, degraded bool, rep *core.Report) {
	if j.binary {
		h := j.w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Pgxsortd-Job", j.id)
		h.Set("X-Pgxsortd-N", strconv.Itoa(j.ds.n))
		cacheHdr := "miss"
		if cached {
			cacheHdr = "hit"
		}
		h.Set("X-Pgxsortd-Cache", cacheHdr)
		if degraded {
			h.Set("X-Pgxsortd-Degraded", "true")
		}
		j.w.Write(sorted)
		return
	}
	resp := sortResponse{
		JobID:     j.id,
		KeyType:   string(j.b.keyType()),
		N:         j.ds.n,
		Cached:    cached,
		Degraded:  degraded,
		ElapsedMS: ms(time.Since(j.start)),
		KeysB64:   base64.StdEncoding.EncodeToString(sorted),
	}
	if rep != nil {
		resp.Report = &reportSummary{
			EngineMS:    ms(rep.Total),
			BytesSent:   rep.BytesSent,
			MsgsSent:    rep.MsgsSent,
			MergePath:   rep.MergePath,
			AdmitWaitMS: ms(rep.Sched.AdmitWait),
		}
	}
	writeJSON(j.w, resp)
}

// query runs one sort-free query (top-k, rank) behind the same front
// door as sorts — but no scheduler stage, since the queries never enter
// the sort pipeline — finishes the job, and writes run's response.
func (j *job) query(r *http.Request, run func() (any, error)) {
	_, done, jerr := j.s.admit(r, &j.req)
	if jerr != nil {
		j.fail(jerr)
		return
	}
	resp, err := run()
	done()
	var bad *apiError
	if errors.As(err, &bad) {
		// The query itself was malformed (a rank key that does not
		// parse): the client's error, not the engine's.
		j.reject(bad)
		return
	}
	if err != nil {
		j.finish(http.StatusInternalServerError, err, false, nil)
		return
	}
	j.finish(http.StatusOK, nil, false, nil)
	writeJSON(j.w, resp)
}

// handleTopK answers top-k / bottom-k without a full merge: each node
// preselects k candidates with a bounded heap and only p*k entries
// travel (see core.Engine.TopK).
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	j := s.open(w, r, "topk")
	if j == nil {
		return
	}
	if j.req.K <= 0 {
		j.reject(badRequest("k must be positive"))
		return
	}
	j.query(r, func() (any, error) {
		entries, sent, err := j.b.topk(j.ds, j.req.K, j.req.Bottom)
		return topkResponse{
			JobID:     j.id,
			KeyType:   string(j.b.keyType()),
			N:         j.ds.n,
			K:         j.req.K,
			Bottom:    j.req.Bottom,
			Entries:   entries,
			BytesSent: sent,
			ElapsedMS: ms(time.Since(j.start)),
		}, err
	})
}

// handleRank locates one key in the dataset's global sort order by
// parallelizable counting — no sort, no redistribution.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	j := s.open(w, r, "rank")
	if j == nil {
		return
	}
	if j.req.Key == "" && j.b.keyType() != dist.KeyString {
		j.reject(badRequest("key is required"))
		return
	}
	j.query(r, func() (any, error) {
		rank, count, err := j.b.rank(j.ds, j.req.Key)
		return rankResponse{
			JobID:     j.id,
			KeyType:   string(j.b.keyType()),
			Key:       j.req.Key,
			Rank:      rank,
			Count:     count,
			N:         j.ds.n,
			ElapsedMS: ms(time.Since(j.start)),
		}, err
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if s.Degraded() {
		// Still 200: the service answers sorts (on the fallback), so a
		// load balancer should keep it in rotation — but operators and
		// probes can see the mesh is suspect.
		io.WriteString(w, "degraded\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.met.render(s))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"jobs": s.jobs.list()})
}
