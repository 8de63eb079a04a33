package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
)

// metrics aggregates per-job engine reports into service-lifetime
// counters and renders them in the Prometheus text exposition format
// (hand-rolled — no client library, per the no-new-deps rule). Counters
// only ever grow; gauges (inflight, queue depth, cache bytes) are read
// from their owners at scrape time.
type metrics struct {
	start time.Time

	mu         sync.Mutex
	jobs       map[string]int64   // endpoint|status -> count
	rejected   map[string]int64   // reason -> count
	jobSeconds map[string]float64 // endpoint -> summed wall time
	inflight   int64

	keysSorted   int64
	stepSeconds  [core.NumSteps]float64
	admitWaitSec float64

	commBytes, commMsgs      int64
	reconnects, framesResent int64
	sendStallSec             float64
	spillBytes, spillReads   int64

	failures map[string]int64 // failure class -> engine sorts failed
	degraded int64            // jobs answered on the single-node fallback
}

func newMetrics() *metrics {
	return &metrics{
		start:      time.Now(),
		jobs:       make(map[string]int64),
		rejected:   make(map[string]int64),
		jobSeconds: make(map[string]float64),
		failures:   make(map[string]int64),
	}
}

// failure counts one engine sort that died, by failure class.
func (m *metrics) failure(class core.FailureClass) {
	m.mu.Lock()
	m.failures[class.String()]++
	m.mu.Unlock()
}

// degradedJob counts one sort answered on the single-node fallback.
func (m *metrics) degradedJob() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// jobStart / jobEnd bracket one executing job for the inflight gauge.
func (m *metrics) jobStart() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

func (m *metrics) jobEnd() {
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
}

// jobDone records one finished request — any outcome, executed or not.
func (m *metrics) jobDone(endpoint, status string, elapsed time.Duration) {
	m.mu.Lock()
	m.jobs[endpoint+"|"+status]++
	m.jobSeconds[endpoint] += elapsed.Seconds()
	m.mu.Unlock()
}

func (m *metrics) reject(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

// absorb folds one sort's report snapshot into the lifetime counters.
func (m *metrics) absorb(rep *core.Report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keysSorted += int64(rep.N)
	for s := core.Step(0); s < core.NumSteps; s++ {
		m.stepSeconds[s] += rep.Steps[s].Seconds()
	}
	m.admitWaitSec += rep.Sched.AdmitWait.Seconds()
	m.commBytes += rep.BytesSent
	m.commMsgs += rep.MsgsSent
	m.reconnects += rep.Reconnects
	m.framesResent += rep.FramesResent
	m.sendStallSec += rep.SendStall.Seconds()
	m.spillBytes += rep.SpillBytes
	m.spillReads += rep.SpillReads
}

// render writes the whole exposition. Label sets are emitted in sorted
// order so consecutive scrapes diff cleanly.
func (m *metrics) render(s *Server) string {
	var b strings.Builder
	up := 1
	if s.Draining() {
		up = 0
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_up 1 while serving, 0 while draining.\n# TYPE pgxsortd_up gauge\npgxsortd_up %d\n", up)
	fmt.Fprintf(&b, "# HELP pgxsortd_uptime_seconds Seconds since the server started.\n# TYPE pgxsortd_uptime_seconds gauge\npgxsortd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	m.mu.Lock()
	fmt.Fprintf(&b, "# HELP pgxsortd_jobs_total Requests finished, by endpoint and status.\n# TYPE pgxsortd_jobs_total counter\n")
	for _, k := range sortedKeys(m.jobs) {
		ep, st, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "pgxsortd_jobs_total{endpoint=%q,status=%q} %d\n", ep, st, m.jobs[k])
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_jobs_inflight Jobs currently executing.\n# TYPE pgxsortd_jobs_inflight gauge\npgxsortd_jobs_inflight %d\n", m.inflight)
	held, capacity := s.adm.depth()
	fmt.Fprintf(&b, "# HELP pgxsortd_admission_queue_depth Jobs holding admission slots (waiting+running).\n# TYPE pgxsortd_admission_queue_depth gauge\npgxsortd_admission_queue_depth %d\n", held)
	fmt.Fprintf(&b, "# HELP pgxsortd_admission_queue_capacity Admission slot capacity (Config.QueueDepth).\n# TYPE pgxsortd_admission_queue_capacity gauge\npgxsortd_admission_queue_capacity %d\n", capacity)
	fmt.Fprintf(&b, "# HELP pgxsortd_rejected_total Requests refused before running, by reason.\n# TYPE pgxsortd_rejected_total counter\n")
	for _, k := range sortedKeys(m.rejected) {
		fmt.Fprintf(&b, "pgxsortd_rejected_total{reason=%q} %d\n", k, m.rejected[k])
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_job_seconds_total Wall time summed over finished requests, by endpoint.\n# TYPE pgxsortd_job_seconds_total counter\n")
	for _, k := range sortedFloatKeys(m.jobSeconds) {
		fmt.Fprintf(&b, "pgxsortd_job_seconds_total{endpoint=%q} %.6f\n", k, m.jobSeconds[k])
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_keys_sorted_total Keys sorted by completed engine runs (cache hits excluded).\n# TYPE pgxsortd_keys_sorted_total counter\npgxsortd_keys_sorted_total %d\n", m.keysSorted)
	fmt.Fprintf(&b, "# HELP pgxsortd_step_seconds_total Critical-path seconds per pipeline step, summed over sorts.\n# TYPE pgxsortd_step_seconds_total counter\n")
	for st := core.Step(0); st < core.NumSteps; st++ {
		fmt.Fprintf(&b, "pgxsortd_step_seconds_total{step=%q} %.6f\n", st.String(), m.stepSeconds[st])
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_sched_admit_wait_seconds_total Seconds jobs waited for a scheduler admission slot.\n# TYPE pgxsortd_sched_admit_wait_seconds_total counter\npgxsortd_sched_admit_wait_seconds_total %.6f\n", m.admitWaitSec)
	fmt.Fprintf(&b, "# HELP pgxsortd_comm_bytes_total Logical payload bytes sent on the wire by completed sorts.\n# TYPE pgxsortd_comm_bytes_total counter\npgxsortd_comm_bytes_total %d\n", m.commBytes)
	fmt.Fprintf(&b, "# HELP pgxsortd_comm_msgs_total Messages sent by completed sorts.\n# TYPE pgxsortd_comm_msgs_total counter\npgxsortd_comm_msgs_total %d\n", m.commMsgs)
	fmt.Fprintf(&b, "# HELP pgxsortd_transport_reconnects_total Connections re-established during sorts.\n# TYPE pgxsortd_transport_reconnects_total counter\npgxsortd_transport_reconnects_total %d\n", m.reconnects)
	fmt.Fprintf(&b, "# HELP pgxsortd_transport_frames_resent_total Frames retransmitted after reconnects.\n# TYPE pgxsortd_transport_frames_resent_total counter\npgxsortd_transport_frames_resent_total %d\n", m.framesResent)
	fmt.Fprintf(&b, "# HELP pgxsortd_transport_send_stall_seconds_total Worst-node send stall seconds, summed over sorts.\n# TYPE pgxsortd_transport_send_stall_seconds_total counter\npgxsortd_transport_send_stall_seconds_total %.6f\n", m.sendStallSec)
	fmt.Fprintf(&b, "# HELP pgxsortd_spill_bytes_total Bytes written to spill run files under the memory budget.\n# TYPE pgxsortd_spill_bytes_total counter\npgxsortd_spill_bytes_total %d\n", m.spillBytes)
	fmt.Fprintf(&b, "# HELP pgxsortd_spill_read_bytes_total Spill bytes read back while merging out-of-core runs.\n# TYPE pgxsortd_spill_read_bytes_total counter\npgxsortd_spill_read_bytes_total %d\n", m.spillReads)
	fmt.Fprintf(&b, "# HELP pgxsortd_failures_total Engine sorts that failed, by failure class (see core.FailureClass).\n# TYPE pgxsortd_failures_total counter\n")
	for _, k := range sortedKeys(m.failures) {
		fmt.Fprintf(&b, "pgxsortd_failures_total{class=%q} %d\n", k, m.failures[k])
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_degraded_jobs_total Sorts answered on the single-node fallback engine.\n# TYPE pgxsortd_degraded_jobs_total counter\npgxsortd_degraded_jobs_total %d\n", m.degraded)
	m.mu.Unlock()

	var retries int64
	for _, bk := range s.backends {
		retries += bk.retries()
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_retries_total Transient engine failures retried by the schedulers.\n# TYPE pgxsortd_retries_total counter\npgxsortd_retries_total %d\n", retries)
	kts := make([]string, 0, len(s.breakers))
	for kt := range s.breakers {
		kts = append(kts, string(kt))
	}
	sort.Strings(kts)
	fmt.Fprintf(&b, "# HELP pgxsortd_breaker_state Mesh circuit-breaker state per key type: 0 closed, 1 open, 2 half-open.\n# TYPE pgxsortd_breaker_state gauge\n")
	for _, kt := range kts {
		st, _, _ := s.breakers[dist.KeyType(kt)].snapshot()
		fmt.Fprintf(&b, "pgxsortd_breaker_state{key_type=%q} %d\n", kt, st)
	}
	fmt.Fprintf(&b, "# HELP pgxsortd_breaker_opens_total Breaker open transitions per key type.\n# TYPE pgxsortd_breaker_opens_total counter\n")
	for _, kt := range kts {
		_, _, opens := s.breakers[dist.KeyType(kt)].snapshot()
		fmt.Fprintf(&b, "pgxsortd_breaker_opens_total{key_type=%q} %d\n", kt, opens)
	}

	hits, misses, evictions, skipped, bytes, entries, budget := s.cache.stats()
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_hits_total Sort results served from the content-hash cache.\n# TYPE pgxsortd_cache_hits_total counter\npgxsortd_cache_hits_total %d\n", hits)
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_misses_total Cache probes that went to the engine.\n# TYPE pgxsortd_cache_misses_total counter\npgxsortd_cache_misses_total %d\n", misses)
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_evictions_total Entries evicted to stay under the byte budget.\n# TYPE pgxsortd_cache_evictions_total counter\npgxsortd_cache_evictions_total %d\n", evictions)
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_skipped_total Results not cached because they exceed the per-entry size cap.\n# TYPE pgxsortd_cache_skipped_total counter\npgxsortd_cache_skipped_total %d\n", skipped)
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_bytes Bytes currently held by cached results.\n# TYPE pgxsortd_cache_bytes gauge\npgxsortd_cache_bytes %d\n", bytes)
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_entries Results currently cached.\n# TYPE pgxsortd_cache_entries gauge\npgxsortd_cache_entries %d\n", entries)
	fmt.Fprintf(&b, "# HELP pgxsortd_cache_budget_bytes Configured cache byte budget (0 when disabled).\n# TYPE pgxsortd_cache_budget_bytes gauge\npgxsortd_cache_budget_bytes %d\n", budget)

	inuse, peak, spooled, gbudget := s.gov.stats()
	fmt.Fprintf(&b, "# HELP pgxsortd_mem_inuse_bytes Memory-governor ledger: bytes reserved by admitted jobs right now.\n# TYPE pgxsortd_mem_inuse_bytes gauge\npgxsortd_mem_inuse_bytes %d\n", inuse)
	fmt.Fprintf(&b, "# HELP pgxsortd_mem_peak_bytes Worst of the reservation high-water mark and any job's tracker-accounted engine peak.\n# TYPE pgxsortd_mem_peak_bytes gauge\npgxsortd_mem_peak_bytes %d\n", peak)
	fmt.Fprintf(&b, "# HELP pgxsortd_mem_budget_bytes Configured governor budget (0 when admission gating is off).\n# TYPE pgxsortd_mem_budget_bytes gauge\npgxsortd_mem_budget_bytes %d\n", gbudget)
	fmt.Fprintf(&b, "# HELP pgxsortd_spooled_jobs_total Uploads that crossed the spool threshold and sorted out of core.\n# TYPE pgxsortd_spooled_jobs_total counter\npgxsortd_spooled_jobs_total %d\n", spooled)
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedFloatKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
