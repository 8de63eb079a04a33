package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"testing"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/keyio"
	"pgxsort/internal/spill"
)

// soakSites are the failpoint sites the storm draws from; "" is the
// no-injection control arm.
var soakSites = []string{
	"",
	"core/local-sort",
	"core/splitters",
	"core/exchange",
	"core/merge",
	"core/send",
	"datamgr/assembly-write",
	"serve/admission",
	"serve/cache-put",
	spill.FpWriteBlock,
	spill.FpReadBlock,
}

// TestSoakFailpointStorm is the self-healing soak: one resident server
// answers a stream of sort jobs while a seeded storm arms a random
// failpoint (site, mode, nth) before each one. It holds the service to
//
//   - zero wrong bytes: every 200 is byte-identical to a local reference
//     sort, and a job whose injection never fired answers 200;
//   - bounded retries: pgxsortd_retries_total stays within the armed jobs'
//     attempt budget (no retry storm);
//   - a live daemon after the storm;
//   - and a storm that bites: at least one armed failpoint fired.
//
// A job whose injection fired may be refused or fail — honestly, with a
// status — but never answer wrongly.
func TestSoakFailpointStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 48 jobs under a failpoint storm")
	}
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) { soakStorm(t, procs) })
	}
}

func soakStorm(t *testing.T, procs int) {
	const (
		jobs          = 24
		keysPerJob    = 4000
		retryAttempts = 4
		seed          = 20170529
	)
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	_, ts := testServer(t, Config{
		Procs: procs,
		// A budget of a fraction of each job's footprint forces jobs out
		// of core, so the storm's spill/write-block and spill/read-block
		// arms have real block I/O to fail (and the healed retries prove
		// the spill tier unwinds cleanly mid-batch).
		MemoryBudget: keysPerJob,
		// ~4 wire bytes/key: the full-range distributions (8 bytes/key)
		// cross it and spool their uploads — so spill/write-block and
		// spill/read-block also fail the spool's own blocks — while the
		// small-domain ones stay resident and keep the cache-put arm live.
		SpoolThreshold: keysPerJob * 4,
		SpillDir:       t.TempDir(),
		RetryAttempts:  retryAttempts,
	})

	modes := []failpoint.Mode{failpoint.ModeError, failpoint.ModeDelay, failpoint.ModePanic}
	rng := dist.NewRNG(seed ^ 0x50AC_50AC_50AC_50AC)
	armed, fired, refused, failed, degraded := 0, 0, 0, 0, 0
	for j := 0; j < jobs; j++ {
		kind := dist.Kinds[j%len(dist.Kinds)]
		keys := dist.Gen{Kind: kind, Seed: seed + uint64(j+1)*104729}.Keys(keysPerJob)
		raw := keyio.EncodeUint64s(keys)
		slices.Sort(keys)
		want := keyio.EncodeUint64s(keys)

		site := soakSites[rng.Uint64()%uint64(len(soakSites))]
		// Fired counts over the site's lifetime (Clear keeps it), so a
		// job's own injection is the delta across its request.
		firedBefore := failpoint.Fired(site)
		if site != "" {
			armed++
			failpoint.Set(site, failpoint.Schedule{
				Mode:  modes[rng.Uint64()%uint64(len(modes))],
				Nth:   1 + int(rng.Uint64()%3),
				Delay: 2 * time.Millisecond,
			})
		}
		// Not postBinary: an injection may cut a streamed answer short,
		// which is a failed job here, not a failed test.
		var body []byte
		status := 0
		resp, err := http.Post(ts.URL+"/v1/sort?key_type=uint64", "application/octet-stream", bytes.NewReader(raw))
		if err == nil {
			status = resp.StatusCode
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		failpoint.Clear(site)
		jobFired := failpoint.Fired(site) > firedBefore
		if jobFired {
			fired++
		}
		label := fmt.Sprintf("job %d (%s, site %q, fired=%v)", j, kind, site, jobFired)
		switch {
		case err == nil && status == http.StatusOK:
			if !bytes.Equal(body, want) {
				t.Errorf("%s: 200 with wrong bytes (%d vs %d)", label, len(body), len(want))
			}
			if resp.Header.Get("X-Pgxsortd-Degraded") == "true" {
				degraded++
			}
		case !jobFired:
			t.Errorf("%s: status %d, err %v with no injection fired", label, status, err)
		case err == nil && status == http.StatusServiceUnavailable && site == "serve/admission":
			refused++ // the injected front-door refusal: honest, not wrong
		default:
			failed++
			t.Logf("%s: failed honestly: status %d, err %v", label, status, err)
			// The bodies are well-formed: an injected server-side fault
			// must never blame the client.
			if status >= 400 && status < 500 {
				t.Errorf("%s: injected fault answered %d, want a 5xx", label, status)
			}
		}
	}

	_, exposition := getBody(t, ts.URL+"/metrics")
	retries := int(metricValue(t, exposition, "pgxsortd_retries_total"))
	t.Logf("p=%d: %d jobs, %d armed, %d fired, %d retries, %d refused, %d failed, %d degraded",
		procs, jobs, armed, fired, retries, refused, failed, degraded)
	if fired == 0 {
		t.Errorf("none of the %d armed failpoints fired: the storm injected nothing", armed)
	}
	if budget := armed * (retryAttempts - 1); retries > budget {
		t.Errorf("%d retries exceed the %d budget (%d armed jobs x %d)", retries, budget, armed, retryAttempts-1)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("daemon not live after the storm: /healthz answered %d", resp.StatusCode)
	}
}

// TestMemStressBodyOverBudget holds the bounded-memory service to its
// bound end to end: one server under a deliberately tiny per-node budget
// answers octet-stream uploads from well under the spool threshold to 20x
// the budget. Every answer is byte-identical to a local reference sort;
// every body past the threshold reports X-Pgxsortd-Spooled, and its
// trailer-borne tracker peak stays under 2 x procs x budget + 1 MiB
// (run formation tracks up to two chunk slabs per node, plus fixed
// decoder/merge slack) — and, at >= 10x the budget, under the body size
// itself, the out-of-core proof. The governor's gauges must cover what
// the trailers claimed.
func TestMemStressBodyOverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memstress: uploads up to 20x the budget")
	}
	const (
		procs     = 4
		budget    = 64 << 10 // per-node engine budget
		threshold = 16 << 10 // spool past this many raw body bytes
		ceiling   = 2*procs*budget + 1<<20
	)
	_, ts := testServer(t, Config{
		Procs:          procs,
		MemoryBudget:   budget,
		SpoolThreshold: threshold,
		SpillDir:       t.TempDir(),
	})

	var maxPeak int64
	spooledJobs := 0
	for i, pt := range []struct {
		label string
		keys  int
	}{
		{"under-threshold", 1000},
		{"2x-budget", 2 * budget / 8},
		{"10x-budget", 10 * budget / 8},
		{"20x-budget", 20 * budget / 8},
	} {
		keys := dist.Gen{Kind: dist.Uniform, Seed: uint64(i+1) * 104729}.Keys(pt.keys)
		raw := keyio.EncodeUint64s(keys)
		slices.Sort(keys)
		want := keyio.EncodeUint64s(keys)

		// postBinary reads the whole chunked body, which is what populates
		// resp.Trailer.
		resp, body := postBinary(t, ts.URL+"/v1/sort?key_type=uint64", raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s: %s", pt.label, resp.Status, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: %d-byte answer is not byte-identical to the reference sort", pt.label, len(body))
		}
		spooled := resp.Header.Get("X-Pgxsortd-Spooled") == "true"
		if wantSpool := len(raw) > threshold; spooled != wantSpool {
			t.Fatalf("%s: spooled=%v for a %d-byte body against a %d-byte threshold",
				pt.label, spooled, len(raw), threshold)
		}
		if !spooled {
			continue
		}
		spooledJobs++
		// The trailer arrives after the body: the server only knows its
		// peak once the final merge has streamed out.
		trailer := resp.Trailer.Get("X-Pgxsortd-Temp-Peak")
		peak, err := strconv.ParseInt(trailer, 10, 64)
		if err != nil || peak <= 0 {
			t.Fatalf("%s: missing X-Pgxsortd-Temp-Peak trailer (%q)", pt.label, trailer)
		}
		if peak > ceiling {
			t.Errorf("%s: temp peak %d exceeds the %d-byte ceiling", pt.label, peak, ceiling)
		}
		if len(raw) >= 10*budget && peak >= int64(len(raw)) {
			t.Errorf("%s: temp peak %d is not out of core against a %d-byte body", pt.label, peak, len(raw))
		}
		maxPeak = max(maxPeak, peak)
	}

	_, exposition := getBody(t, ts.URL+"/metrics")
	if v := int64(metricValue(t, exposition, "pgxsortd_mem_peak_bytes")); v < maxPeak {
		t.Errorf("pgxsortd_mem_peak_bytes gauge %d below the worst job peak %d", v, maxPeak)
	}
	if v := int(metricValue(t, exposition, "pgxsortd_spooled_jobs_total")); v < spooledJobs {
		t.Errorf("pgxsortd_spooled_jobs_total %d below the %d spooled uploads", v, spooledJobs)
	}
}
