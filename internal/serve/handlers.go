package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
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

// apiError carries an HTTP status with its message through the request
// pipeline; writeError renders it as the JSON error envelope.
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
	EngineMS      float64 `json:"engine_ms"`
	BytesSent     int64   `json:"bytes_sent"`
	MsgsSent      int64   `json:"msgs_sent"`
	LocalSortPath string  `json:"local_sort"`
	MergePath     string  `json:"merge"`
	AdmitWaitMS   float64 `json:"admit_wait_ms"`
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

// decodeRequest parses the shared JSON body. A body over the byte limit
// is 413, not 400 — the JSON is not malformed, it is too big, and the
// client should hear the same status the binary shape answers.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*sortRequest, *apiError) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	var req sortRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &apiError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds the %d-byte limit", mbe.Limit)}
		}
		return nil, badRequest("invalid JSON body: %v", err)
	}
	return &req, nil
}

// resolveDataset turns the request's dataset source into canonical bytes.
func (s *Server) resolveDataset(b backend, req *sortRequest) (raw []byte, n int, apiErr *apiError) {
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
		return nil, 0, badRequest("supply exactly one of keys, keys_b64 or dist (got %d)", sources)
	}
	switch {
	case req.Keys != nil:
		var err error
		raw, err = b.canonJSON(req.Keys)
		if err != nil {
			return nil, 0, badRequest("%v", err)
		}
		n = len(req.Keys)
	case req.KeysB64 != "":
		var err error
		raw, err = base64.StdEncoding.DecodeString(req.KeysB64)
		if err != nil {
			return nil, 0, badRequest("keys_b64: %v", err)
		}
		n, err = b.count(raw)
		if err != nil {
			return nil, 0, badRequest("keys_b64: %v", err)
		}
	default:
		spec := req.Dist
		if spec.N <= 0 {
			return nil, 0, badRequest("dist.n must be positive")
		}
		if spec.N > s.cfg.MaxKeys {
			return nil, 0, &apiError{http.StatusRequestEntityTooLarge, fmt.Sprintf("dist.n %d exceeds the %d-key limit", spec.N, s.cfg.MaxKeys)}
		}
		kind := dist.Uniform
		if spec.Kind != "" {
			var err error
			kind, err = dist.ParseKind(spec.Kind)
			if err != nil {
				return nil, 0, badRequest("dist.kind: %v", err)
			}
		}
		raw = b.generate(dist.Gen{Kind: kind, Seed: spec.Seed, Domain: spec.Domain}, spec.N, spec.Prefix)
		n = spec.N
	}
	if n > s.cfg.MaxKeys {
		return nil, 0, &apiError{http.StatusRequestEntityTooLarge, fmt.Sprintf("%d keys exceeds the %d-key limit", n, s.cfg.MaxKeys)}
	}
	return raw, n, nil
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

// jobError is a job that produced no answer — turned away at the front
// door or failed in the engine: the HTTP status and the error for the
// envelope and the job log.
type jobError struct {
	status int
	err    error
}

// admit is the one front door every job — sort, spooled sort, top-k, rank
// — passes before it may use an engine: draining check, the
// serve/admission failpoint, the effective deadline, then the bounded
// queue and the tenant's slot. On success it returns the job's context
// and a release func the caller must defer; otherwise why not (a full
// queue is counted in pgxsortd_rejected_total here, once for every door).
func (s *Server) admit(r *http.Request, req *sortRequest) (context.Context, func(), *jobError) {
	// Counting into jobsWG before re-checking draining closes the race
	// with Close: either Close sees our count and waits, or we see its
	// draining flag and refuse.
	s.jobsWG.Add(1)
	ctx, cancel := s.jobCtx(r, req.DeadlineMS)
	refuse := func(status int, err error) (context.Context, func(), *jobError) {
		cancel()
		s.jobsWG.Done()
		return nil, nil, &jobError{status: status, err: err}
	}
	if s.draining.Load() {
		return refuse(http.StatusServiceUnavailable, errors.New("server is draining"))
	}
	if ferr := failpoint.HitNoPanic(fpAdmission); ferr != nil {
		return refuse(http.StatusServiceUnavailable, fmt.Errorf("admission refused: %w", ferr))
	}
	release, st := s.adm.begin(ctx, req.Tenant)
	switch st {
	case admitQueueFull:
		s.met.reject("queue_full")
		return refuse(http.StatusTooManyRequests, errors.New("admission queue is full; retry later"))
	case admitDeadline:
		if errors.Is(ctx.Err(), context.Canceled) {
			return refuse(StatusClientClosedRequest, fmt.Errorf("client went away waiting for tenant slot: %w", ctx.Err()))
		}
		return refuse(http.StatusGatewayTimeout, fmt.Errorf("deadline expired waiting for tenant slot: %v", ctx.Err()))
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
func (s *Server) reserve(need int64) (func(), *jobError) {
	if s.gov.oversized(need) {
		s.met.reject("too_large")
		return nil, &jobError{http.StatusRequestEntityTooLarge,
			fmt.Errorf("job needs ~%d bytes resident, over the %d-byte memory budget", need, s.cfg.GovernorBudget)}
	}
	if !s.gov.reserve(need) {
		s.met.reject("mem_budget")
		return nil, &jobError{http.StatusTooManyRequests, errors.New("memory budget exhausted; retry later")}
	}
	return func() { s.gov.release(need) }, nil
}

// handleSort runs one sort job. Two request shapes share the endpoint:
// JSON (sortRequest) and application/octet-stream, whose body is the
// canonical keyio encoding and whose options ride in query parameters.
// The octet-stream shape answers with the canonical sorted bytes —
// byte-identical to what `pgxsort sort` writes to disk.
func (s *Server) handleSort(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	binary := strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream")
	id := s.jobID()
	var req *sortRequest
	var b backend
	var raw []byte
	var n int
	var apiErr *apiError
	var spool string
	if binary {
		req, apiErr = s.binarySortRequest(r)
		if apiErr == nil {
			b, apiErr = s.lookupBackend(req.KeyType)
		}
		if apiErr == nil {
			// Streaming ingress: the body decodes as it arrives and never
			// accumulates whole — past the spool threshold it lands in a
			// spill-tier run file instead.
			var ing *ingestResult
			ing, apiErr = s.ingestBinary(w, r, b, id)
			if apiErr == nil {
				raw, n, spool = ing.resident, ing.n, ing.spool
				if spool != "" {
					defer os.Remove(spool)
				}
			}
		}
	} else {
		req, apiErr = s.decodeRequest(w, r)
		if apiErr == nil {
			b, apiErr = s.lookupBackend(req.KeyType)
		}
		if apiErr == nil {
			raw, n, apiErr = s.resolveDataset(b, req)
		}
	}
	if apiErr != nil {
		s.rejectRequest(w, "sort", apiErr, start)
		return
	}

	log := func(status int, err error, cached bool, rep *core.Report) {
		s.jobs.add(newJobRecord(id, req.Tenant, "sort", b.keyType(), n, status, err, cached, time.Since(start), rep))
	}

	if spool != "" {
		s.runSortSpooled(w, r, id, b, req, spool, n, start, log)
		return
	}

	// Cache probe: hits bypass admission entirely — a cached answer
	// costs no engine capacity, so overload must not refuse it.
	ckey := hashJob(b.keyType(), raw)
	if !req.NoCache {
		if sorted, cn, ok := s.cache.get(ckey); ok {
			s.met.jobDone("sort", "200", time.Since(start))
			log(http.StatusOK, nil, true, nil)
			s.writeSorted(w, r, binary, id, b, sorted, cn, true, false, start, nil)
			return
		}
	}

	fail := func(jerr *jobError) {
		s.met.jobDone("sort", strconv.Itoa(jerr.status), time.Since(start))
		log(jerr.status, jerr.err, false, nil)
		s.writeError(w, jerr.status, jerr.err.Error())
	}
	// Governor: a resident job holds its decoded keys, entry slabs and
	// re-encoded result in this process.
	release, jerr := s.reserve(residentJobBytes(n))
	if jerr != nil {
		fail(jerr)
		return
	}
	defer release()

	sorted, rep, degraded, jerr := s.runSort(r, b, req, raw, n)
	if jerr != nil {
		fail(jerr)
		return
	}
	s.gov.notePeak(rep.TempPeakBytes)
	if !req.NoCache {
		if ferr := failpoint.HitNoPanic(fpCachePut); ferr == nil {
			s.cache.put(ckey, sorted, n)
		}
	}
	s.met.jobDone("sort", "200", time.Since(start))
	log(http.StatusOK, nil, false, &rep)
	s.writeSorted(w, r, binary, id, b, sorted, n, false, degraded, start, &rep)
}

// runSortSpooled takes one spooled upload through admission and streams
// the sorted answer chunked, straight off the final-merge cursor. The
// spooled path never touches the mesh — run formation and merging read
// the spill tier on this node — so there is no breaker to consult and no
// single-node fallback to degrade to. The result cache is bypassed too:
// hashing the body would mean reading the spool twice, and an answer too
// big to hold resident is exactly the answer a byte-budgeted cache must
// not store.
func (s *Server) runSortSpooled(w http.ResponseWriter, r *http.Request, id string, b backend, req *sortRequest, spool string, n int, start time.Time, log func(int, error, bool, *core.Report)) {
	fail := func(status int, err error) {
		s.met.jobDone("sort", strconv.Itoa(status), time.Since(start))
		log(status, err, false, nil)
		s.writeError(w, status, err.Error())
	}

	s.gov.noteSpooled()
	release, jerr := s.reserve(spooledJobBytes(s.cfg.SpoolThreshold))
	if jerr != nil {
		fail(jerr.status, jerr.err)
		return
	}
	defer release()

	ctx, done, jerr := s.admit(r, req)
	if jerr != nil {
		fail(jerr.status, jerr.err)
		return
	}
	defer done()

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Pgxsortd-Job", id)
	h.Set("X-Pgxsortd-N", strconv.Itoa(n))
	h.Set("X-Pgxsortd-Cache", "bypass")
	h.Set("X-Pgxsortd-Spooled", "true")
	// The measured peak only exists after the stream ends, so it rides a
	// trailer; announce it before the first body write.
	h.Set("Trailer", "X-Pgxsortd-Temp-Peak")
	cw := &countingWriter{w: w}
	rep, err := b.sortSpooledTo(ctx, spool, n, cw)
	if err != nil {
		if cw.n == 0 {
			// Nothing on the wire yet: unstage the success headers and
			// answer with a real error status.
			for _, k := range []string{"Trailer", "X-Pgxsortd-Job", "X-Pgxsortd-N", "X-Pgxsortd-Cache", "X-Pgxsortd-Spooled"} {
				h.Del(k)
			}
			jerr := sortStatus(err)
			fail(jerr.status, jerr.err)
			return
		}
		// Mid-stream failure: 200 is already on the wire, so cutting the
		// connection is the only honest signal left to the client.
		s.met.jobDone("sort", strconv.Itoa(http.StatusInternalServerError), time.Since(start))
		log(http.StatusInternalServerError, err, false, nil)
		panic(http.ErrAbortHandler)
	}
	h.Set("X-Pgxsortd-Temp-Peak", strconv.FormatInt(rep.TempPeakBytes, 10))
	s.gov.notePeak(rep.TempPeakBytes)
	s.met.absorb(&rep)
	s.met.jobDone("sort", "200", time.Since(start))
	log(http.StatusOK, nil, false, &rep)
}

// runSort takes one resolved dataset through admission and the engine.
// degraded reports the job ran on the single-node fallback because the
// keytype's breaker considers the mesh dead (or it died under this very
// job and the fallback rescued the answer in-request).
func (s *Server) runSort(r *http.Request, b backend, req *sortRequest, raw []byte, n int) (sorted []byte, rep core.Report, degraded bool, jerr *jobError) {
	ctx, done, jerr := s.admit(r, req)
	if jerr != nil {
		return nil, rep, false, jerr
	}
	defer done()

	br := s.breakers[b.keyType()]
	canFallback := s.cfg.FallbackKeys >= 0 && n <= s.cfg.FallbackKeys
	route := br.route()
	if route == routeFallback && canFallback {
		sorted, rep, err := b.sortSingle(ctx, raw)
		if err != nil {
			return nil, rep, false, sortStatus(err)
		}
		s.met.degradedJob()
		s.met.absorb(&rep)
		return sorted, rep, true, nil
	}

	// Mesh path: routeMesh, routeProbe — and routeFallback for a job too
	// large to degrade, which has nowhere to go but the mesh.
	sorted, rep, err := b.sort(ctx, raw)
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
			if fsorted, frep, ferr := b.sortSingle(ctx, raw); ferr == nil {
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
func sortStatus(err error) *jobError {
	switch {
	case errors.Is(err, context.Canceled):
		return &jobError{status: StatusClientClosedRequest, err: fmt.Errorf("client closed request: %w", err)}
	case errors.Is(err, context.DeadlineExceeded):
		return &jobError{status: http.StatusGatewayTimeout, err: fmt.Errorf("job deadline exceeded: %w", err)}
	}
	return &jobError{status: http.StatusInternalServerError, err: fmt.Errorf("sort failed: %w", err)}
}

// writeSorted renders a finished sort in the shape the request used.
func (s *Server) writeSorted(w http.ResponseWriter, r *http.Request, binary bool, id string, b backend, sorted []byte, n int, cached, degraded bool, start time.Time, rep *core.Report) {
	if binary {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Pgxsortd-Job", id)
		w.Header().Set("X-Pgxsortd-N", strconv.Itoa(n))
		cacheHdr := "miss"
		if cached {
			cacheHdr = "hit"
		}
		w.Header().Set("X-Pgxsortd-Cache", cacheHdr)
		if degraded {
			w.Header().Set("X-Pgxsortd-Degraded", "true")
		}
		w.Write(sorted)
		return
	}
	resp := sortResponse{
		JobID:     id,
		KeyType:   string(b.keyType()),
		N:         n,
		Cached:    cached,
		Degraded:  degraded,
		ElapsedMS: ms(time.Since(start)),
		KeysB64:   base64.StdEncoding.EncodeToString(sorted),
	}
	if rep != nil {
		resp.Report = &reportSummary{
			EngineMS:      ms(rep.Total),
			BytesSent:     rep.BytesSent,
			MsgsSent:      rep.MsgsSent,
			LocalSortPath: rep.LocalSortPath,
			MergePath:     rep.MergePath,
			AdmitWaitMS:   ms(rep.Sched.AdmitWait),
		}
	}
	writeJSON(w, resp)
}

// binarySortRequest reads the octet-stream shape's query parameters.
func (s *Server) binarySortRequest(r *http.Request) (*sortRequest, *apiError) {
	q := r.URL.Query()
	req := &sortRequest{
		Tenant:  q.Get("tenant"),
		KeyType: q.Get("key_type"),
		NoCache: q.Get("no_cache") == "true",
	}
	if v := q.Get("deadline_ms"); v != "" {
		d, err := strconv.ParseInt(v, 10, 64)
		if err != nil || d < 0 {
			return nil, badRequest("deadline_ms: %q is not a non-negative integer", v)
		}
		req.DeadlineMS = d
	}
	if q.Has("recbytes") {
		// Same answer the JSON shape gives the retired field.
		return nil, badRequest("recbytes is not supported: the service sorts keys only")
	}
	return req, nil
}

func (s *Server) lookupBackend(keyType string) (backend, *apiError) {
	b, err := s.backendFor(keyType)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return b, nil
}

// rejectRequest accounts and answers a request refused before running.
func (s *Server) rejectRequest(w http.ResponseWriter, endpoint string, apiErr *apiError, start time.Time) {
	s.met.jobDone(endpoint, strconv.Itoa(apiErr.status), time.Since(start))
	switch apiErr.status {
	case http.StatusBadRequest:
		s.met.reject("bad_request")
	case http.StatusRequestEntityTooLarge:
		s.met.reject("too_large")
	case http.StatusRequestTimeout:
		s.met.reject("slow_client")
	case http.StatusInsufficientStorage:
		s.met.reject("spool_disk_full")
	}
	s.writeError(w, apiErr.status, apiErr.msg)
}

// handleTopK answers top-k / bottom-k without a full merge: each node
// preselects k candidates with a bounded heap and only p*k entries
// travel (see core.Engine.TopK).
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, apiErr := s.decodeRequest(w, r)
	var b backend
	if apiErr == nil {
		b, apiErr = s.lookupBackend(req.KeyType)
	}
	var raw []byte
	var n int
	if apiErr == nil {
		raw, n, apiErr = s.resolveDataset(b, req)
	}
	if apiErr == nil && req.K <= 0 {
		apiErr = badRequest("k must be positive")
	}
	if apiErr != nil {
		s.rejectRequest(w, "topk", apiErr, start)
		return
	}
	id := s.jobID()
	ans, status, err := runQuery(s, r, req, func() (*topkAnswer, error) {
		return b.topk(raw, req.K, req.Bottom)
	})
	s.met.jobDone("topk", strconv.Itoa(status), time.Since(start))
	if err != nil {
		s.jobs.add(newJobRecord(id, req.Tenant, "topk", b.keyType(), n, status, err, false, time.Since(start), nil))
		s.writeError(w, status, err.Error())
		return
	}
	s.jobs.add(newJobRecord(id, req.Tenant, "topk", b.keyType(), n, status, nil, false, time.Since(start), nil))
	resp := topkResponse{
		JobID:     id,
		KeyType:   string(b.keyType()),
		N:         ans.N,
		K:         req.K,
		Bottom:    req.Bottom,
		Entries:   make([]topkEntry, len(ans.Keys)),
		BytesSent: ans.Bytes,
		ElapsedMS: ms(time.Since(start)),
	}
	for i := range ans.Keys {
		resp.Entries[i] = topkEntry{Key: ans.Keys[i], Proc: ans.Procs[i]}
	}
	writeJSON(w, resp)
}

// handleRank locates one key in the dataset's global sort order by
// parallelizable counting — no sort, no redistribution.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, apiErr := s.decodeRequest(w, r)
	var b backend
	if apiErr == nil {
		b, apiErr = s.lookupBackend(req.KeyType)
	}
	var raw []byte
	if apiErr == nil {
		raw, _, apiErr = s.resolveDataset(b, req)
	}
	if apiErr == nil && req.Key == "" && b.keyType() != dist.KeyString {
		apiErr = badRequest("key is required")
	}
	if apiErr != nil {
		s.rejectRequest(w, "rank", apiErr, start)
		return
	}
	id := s.jobID()
	ans, status, err := runQuery(s, r, req, func() (*rankAnswer, error) {
		return b.rank(raw, req.Key)
	})
	s.met.jobDone("rank", strconv.Itoa(status), time.Since(start))
	if err != nil {
		s.jobs.add(newJobRecord(id, req.Tenant, "rank", b.keyType(), 0, status, err, false, time.Since(start), nil))
		s.writeError(w, status, err.Error())
		return
	}
	s.jobs.add(newJobRecord(id, req.Tenant, "rank", b.keyType(), ans.N, status, nil, false, time.Since(start), nil))
	writeJSON(w, rankResponse{
		JobID:     id,
		KeyType:   string(b.keyType()),
		Key:       req.Key,
		Rank:      ans.Rank,
		Count:     ans.Count,
		N:         ans.N,
		ElapsedMS: ms(time.Since(start)),
	})
}

// runQuery runs one sort-free query (top-k, rank) behind the same front
// door as sorts — but no scheduler stage, since the queries never enter
// the sort pipeline.
func runQuery[T any](s *Server, r *http.Request, req *sortRequest, run func() (T, error)) (ans T, status int, err error) {
	_, done, jerr := s.admit(r, req)
	if jerr != nil {
		return ans, jerr.status, jerr.err
	}
	defer done()
	ans, err = run()
	if err != nil {
		var zero T
		return zero, http.StatusInternalServerError, err
	}
	return ans, http.StatusOK, nil
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
