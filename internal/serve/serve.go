// Package serve is the sorting-as-a-service layer: an HTTP front end
// over the core engine that turns the one-shot CLI pipeline into a
// resident, multi-tenant endpoint. It owns everything between the socket
// and the scheduler — admission (bounded queue, per-tenant inflight
// caps, per-job deadlines), a content-hash result cache with an LRU byte
// budget, metrics exposition and a job trace log — while the sorting
// itself stays in internal/core, reached through core.Scheduler so
// concurrent HTTP jobs obey the same inflight cap as a SortMany batch.
//
// Every request takes one way through: open (parse, resolve the key
// domain, decode the dataset once, hashing it as it streams) → cache
// probe → governor → admission → engine → encode from the result cursor
// → finish (the one place a request is counted, logged and, on failure,
// answered).
//
// The package map:
//
//	serve.go    — Config, Server lifecycle (New / Close / draining)
//	handlers.go — the HTTP surface (documented in docs/API.md): the job
//	              value with its open prologue and finish exit, the
//	              admission and governor doors, the three endpoints
//	backend.go  — per-keytype engine + scheduler, the dataset every
//	              request shape decodes into, streaming ingest (decode,
//	              hash, spool) and the cursor-driven egress encoder
//	spool.go    — upload plumbing: read deadlines, error mapping
//	admission.go— bounded queue and per-tenant semaphores
//	governor.go — process-wide memory reservation ledger
//	breaker.go  — per-keytype mesh circuit breaker
//	cache.go    — content-addressed LRU result cache
//	metrics.go  — counter aggregation and /metrics text exposition
//	jobs.go     — /debug/jobs ring buffer
package serve

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// Defaults for the zero Config fields.
const (
	DefaultTenantInflight   = 2
	DefaultQueueDepth       = 16
	DefaultCacheBytes       = 64 << 20
	DefaultJobTimeout       = 60 * time.Second
	DefaultMaxKeys          = 50_000_000
	DefaultRetryAfter       = 1 * time.Second
	DefaultRetryAttempts    = 3
	DefaultBreakerThreshold = 1
	DefaultBreakerCooldown  = 30 * time.Second
	DefaultSpoolThreshold   = 8 << 20
	DefaultUploadTimeout    = 30 * time.Second
	DefaultCacheEntryFrac   = 8
)

// Config shapes one pgxsortd server. The zero value serves all three key
// domains over the in-process transport with the documented defaults.
type Config struct {
	// Procs / Workers size each keytype's engine (see core.Options).
	Procs   int
	Workers int
	// BufferBytes is the engine buffer size (default 256KB, the paper's).
	BufferBytes int
	// Transport selects "chan" (default) or "tcp"; TCP shapes the mesh
	// for real clusters (see transport.Config). Explicit TCP addresses
	// bind one mesh, so they require exactly one enabled key type.
	Transport string
	TCP       transport.Config
	// MemoryBudget caps each engine node's temporary memory; beyond it
	// sorts spill block-file runs to SpillDir and stream them back
	// (core.Options.MemoryBudget; the pgxsortd -mem-budget flag). Zero
	// = unlimited (subject to PGXSORT_MEM_BUDGET), negative = explicitly
	// unlimited.
	MemoryBudget int64
	// SpillDir is where spilled runs live (empty = system temp dir).
	SpillDir string

	// MaxInflight is each engine scheduler's global admission cap: how
	// many sorts may be in flight at once across all tenants (default
	// core.DefaultMaxInflight).
	MaxInflight int
	// TenantInflight caps how many jobs one tenant may have admitted at
	// once; further jobs from that tenant wait (until their deadline)
	// while other tenants proceed. Default 2.
	TenantInflight int
	// QueueDepth bounds how many jobs may be in the building at once —
	// waiting plus running, across all tenants. A full queue answers
	// 429 with Retry-After instead of queueing unboundedly. Default 16.
	QueueDepth int
	// CacheBytes is the result cache's LRU byte budget: 0 means the
	// 64MB default, negative disables caching.
	CacheBytes int64
	// JobTimeout is the per-job deadline when a request names none;
	// an explicit deadline_ms longer than this is clamped to it.
	// Default 60s.
	JobTimeout time.Duration
	// MaxKeys rejects datasets larger than this with 413 (default 50M).
	MaxKeys int
	// RetryAfter is the Retry-After hint on 429/503 answers. Default 1s.
	RetryAfter time.Duration
	// KeyTypes lists the key domains to build engines for (default all
	// three: uint64, float64, string).
	KeyTypes []dist.KeyType

	// RetryAttempts is the per-job attempt cap the schedulers use for
	// transient engine failures (core.RetryPolicy.MaxAttempts).
	// Default 3; 1 disables retries.
	RetryAttempts int
	// BreakerThreshold is how many consecutive Fatal mesh failures open a
	// keytype's circuit breaker (default 1: the first dead link degrades
	// the service rather than failing a second job the same way).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open probe back onto the mesh. Default 30s.
	BreakerCooldown time.Duration
	// FallbackKeys caps how large a dataset may take the degraded
	// single-node path when the breaker is open; bigger jobs fail with
	// the mesh error instead. 0 means MaxKeys (everything the daemon
	// accepts already fits in its memory); negative disables fallback.
	FallbackKeys int

	// SpoolThreshold is the octet-stream upload size (bytes) past which
	// the body stops accumulating in memory and lands in an engine
	// scratch file instead; the job then takes the out-of-core spooled sort
	// and streams its answer chunked. 0 means 8MB (clamped to the
	// engine MemoryBudget when one is set, so a budgeted server never
	// buffers more than its budget before spooling); negative disables
	// spooling — every upload is resident.
	SpoolThreshold int64
	// UploadTimeout is the per-read idle deadline on streamed uploads:
	// a client that stalls longer than this mid-body gets 408 instead
	// of holding a spool slot forever. Default 30s; negative disables.
	UploadTimeout time.Duration
	// GovernorBudget is the process-wide memory ledger's budget: jobs
	// whose estimated resident footprint would push the ledger past it
	// wait out as 429 (or 413 when a single job could never fit). 0
	// disables gating; the ledger still tracks and exports its gauges.
	GovernorBudget int64
	// CacheEntryFrac caps single result-cache entries at
	// CacheBytes/CacheEntryFrac: one huge result must not evict the
	// whole cache to store itself once. Default 8; 1 allows any entry
	// that fits the budget (the old behaviour).
	CacheEntryFrac int
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget == 0 {
		// Resolve the env fallback here rather than leaving it to each
		// engine: the serve layer clamps the spool threshold off the
		// budget, so an env-budgeted daemon must see the budget its
		// engines see, which also size the upload spool's blocks.
		if b, err := core.ParseMemBudget(os.Getenv(core.MemBudgetEnv)); err == nil {
			c.MemoryBudget = b
		}
	}
	if c.TenantInflight <= 0 {
		c.TenantInflight = DefaultTenantInflight
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = DefaultJobTimeout
	}
	if c.MaxKeys <= 0 {
		c.MaxKeys = DefaultMaxKeys
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if len(c.KeyTypes) == 0 {
		c.KeyTypes = append([]dist.KeyType(nil), dist.KeyTypes...)
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = DefaultRetryAttempts
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.FallbackKeys == 0 {
		c.FallbackKeys = c.MaxKeys
	}
	if c.SpoolThreshold == 0 {
		c.SpoolThreshold = DefaultSpoolThreshold
		if c.MemoryBudget > 0 && c.MemoryBudget < c.SpoolThreshold {
			c.SpoolThreshold = c.MemoryBudget
		}
	}
	if c.UploadTimeout == 0 {
		c.UploadTimeout = DefaultUploadTimeout
	}
	if c.CacheEntryFrac <= 0 {
		c.CacheEntryFrac = DefaultCacheEntryFrac
	}
	return c
}

// Server is one resident pgxsortd instance: an engine (and scheduler)
// per enabled key domain behind a shared admission controller, cache,
// metrics aggregator and job log. Build with New, mount Handler (or the
// Server itself) on an http.Server, and Close to drain.
type Server struct {
	cfg      Config
	backends map[dist.KeyType]backend
	breakers map[dist.KeyType]*breaker
	adm      *admission
	cache    *resultCache
	met      *metrics
	jobs     *jobLog
	gov      *governor
	mux      *http.ServeMux

	draining  atomic.Bool
	jobsWG    sync.WaitGroup
	nextJob   atomic.Int64
	closeOnce sync.Once
	closeErr  error
}

// New builds the server and its engines. The engines connect their
// transports immediately (a TCP mesh dials its peers here), so a New
// that returns is ready to serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	explicitTCP := len(cfg.TCP.Listen) > 0 || len(cfg.TCP.Peers) > 0
	if explicitTCP && len(cfg.KeyTypes) != 1 {
		return nil, fmt.Errorf("serve: explicit TCP addresses bind one mesh; restrict KeyTypes to exactly one domain (have %d)", len(cfg.KeyTypes))
	}
	s := &Server{
		cfg:      cfg,
		backends: make(map[dist.KeyType]backend, len(cfg.KeyTypes)),
		breakers: make(map[dist.KeyType]*breaker, len(cfg.KeyTypes)),
		adm:      newAdmission(cfg.QueueDepth, cfg.TenantInflight),
		cache:    newResultCache(cfg.CacheBytes, int64(cfg.CacheEntryFrac)),
		met:      newMetrics(),
		jobs:     newJobLog(jobLogDepth),
		gov:      newGovernor(cfg.GovernorBudget),
	}
	seen := make(map[dist.KeyType]bool)
	for _, kt := range cfg.KeyTypes {
		if seen[kt] {
			return nil, fmt.Errorf("serve: duplicate key type %q", kt)
		}
		seen[kt] = true
		b, err := newBackend(kt, cfg)
		if err != nil {
			s.closeBackends()
			return nil, err
		}
		s.backends[kt] = b
		s.breakers[kt] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	s.mux = s.routes()
	return s, nil
}

// Handler returns the server's HTTP surface (see docs/API.md).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP lets the Server itself be mounted as a handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether Close has begun: /readyz answers 503 and new
// jobs are refused while in-flight ones finish.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: new jobs are refused (503 + Retry-After),
// in-flight jobs run to completion, then every engine shuts down. Safe
// to call more than once; later calls return the first close error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.jobsWG.Wait()
		s.closeErr = s.closeBackends()
	})
	return s.closeErr
}

func (s *Server) closeBackends() error {
	var firstErr error
	for _, b := range s.backends {
		if err := b.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// backendFor resolves the key_type request field ("" means uint64).
func (s *Server) backendFor(keyType string) (backend, *apiError) {
	kt := dist.KeyUint64
	if keyType != "" {
		var err error
		kt, err = dist.ParseKeyType(keyType)
		if err != nil {
			return nil, badRequest("%v", err)
		}
	}
	b, ok := s.backends[kt]
	if !ok {
		return nil, badRequest("key type %q is not enabled on this server", kt)
	}
	return b, nil
}

// jobID mints the next job identifier.
func (s *Server) jobID() string {
	return fmt.Sprintf("j-%06d", s.nextJob.Add(1))
}

// Degraded reports whether any keytype's breaker is not closed: the
// service still answers sorts (on the single-node fallback) but the
// distributed mesh is suspect. /readyz surfaces this as a "degraded"
// body so operators see it without scraping /metrics.
func (s *Server) Degraded() bool {
	for _, br := range s.breakers {
		if st, _, _ := br.snapshot(); st != breakerClosed {
			return true
		}
	}
	return false
}

// retryPolicy maps the service config onto the schedulers' retry knobs.
func (c Config) retryPolicy() core.RetryPolicy {
	return core.RetryPolicy{MaxAttempts: c.RetryAttempts}
}

// engineOptions maps the service config onto one engine's options.
func (c Config) engineOptions() core.Options {
	return core.Options{
		Procs:          c.Procs,
		WorkersPerProc: c.Workers,
		BufferBytes:    c.BufferBytes,
		Transport:      c.Transport,
		TCP:            c.TCP,
		MaxInflight:    c.MaxInflight,
		MemoryBudget:   c.MemoryBudget,
		SpillDir:       c.SpillDir,
	}
}
