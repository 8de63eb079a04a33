package harness

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/keyio"
	"pgxsort/internal/serve"
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
	"datamgr/assembly-write",
	"serve/admission",
	"serve/cache-put",
	serve.FpSpoolWrite,
	serve.FpSpoolRead,
	spill.FpWriteBlock,
	spill.FpReadBlock,
}

// SoakExp is the self-healing soak: a resident pgxsortd server answering
// a stream of sort jobs while a seeded storm arms a random failpoint
// (site, mode, nth) before each one. The invariants the run enforces —
// not just reports — are the tentpole's acceptance bar: zero wrong
// bytes (every 200 is byte-identical to a local reference sort),
// bounded retries (no retry storm past the per-job attempt cap), and a
// live daemon afterwards. The table shows how many injections actually
// fired, how many jobs the scheduler healed invisibly, and what the
// clients paid in latency.
func SoakExp(c Config) ([]Table, error) {
	c = c.WithDefaults()
	const jobs = 24
	keysPerJob := c.N / jobs
	if keysPerJob < 1000 {
		keysPerJob = 1000
	}
	t := Table{
		ID:    "soak",
		Title: fmt.Sprintf("self-healing soak: %d jobs under a randomized failpoint storm (uint64 keys)", jobs),
		Header: []string{"procs", "jobs", "keys_per_job", "armed", "fired", "retries",
			"refused_503", "degraded", "errors", "wrong_bytes", "p50_ms", "p99_ms"},
	}
	for _, p := range c.Procs {
		row, err := c.soakRound(p, jobs, keysPerJob)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("transport=%s, %d workers/proc, scheduler retry cap 4 attempts/job", c.Transport, c.Workers),
		"each job first picks a failpoint (engine stage, datamgr assembly, spill block I/O, serve",
		"admission/cache-put/spool-write/spool-read, or none) with a seeded mode (error/delay/panic)",
		"and hit number; a tiny memory budget forces every job out of core so the spill arms hit real",
		"block reads and writes, and a spool threshold under the full-range bodies makes those uploads",
		"stream through the spill tier so the spool arms fire against real upload run files;",
		"armed counts jobs with an injection configured, fired those whose schedule actually triggered;",
		"wrong_bytes compares every",
		"200 against a local reference sort and MUST be 0; refused_503 is the admission site answering",
		"like a drain (an honest refusal, not a wrong answer); the run fails if the daemon is not live",
		"afterwards or retries exceed the attempt budget (bounded retries, no storm)")
	return []Table{t}, nil
}

// soakRound runs one processor-count point of the storm.
func (c Config) soakRound(procs, jobs, keysPerJob int) ([]string, error) {
	failpoint.Reset()
	defer failpoint.Reset()
	const retryAttempts = 4
	srv, err := serve.New(serve.Config{
		Procs:       procs,
		Workers:     c.Workers,
		Transport:   c.Transport,
		MaxInflight: c.Inflight,
		// A budget of a fraction of each job's footprint forces jobs out
		// of core, so the storm's spill/write-block and spill/read-block
		// arms have real block I/O to fail (and the healed retries prove
		// the spill tier unwinds cleanly mid-batch).
		MemoryBudget: int64(keysPerJob), // ~1/10 of keysPerJob entries x ~10 wire bytes
		// ~4 wire bytes/key: the full-range distributions (~9.5 bytes/key)
		// cross it and spool their uploads — arming serve/spool-write and
		// serve/spool-read against real run files — while the small-domain
		// ones stay resident and keep the cache-put arm live.
		SpoolThreshold: int64(keysPerJob * 4),
		SpillDir:       c.SpillDir,
		RetryAttempts:  retryAttempts,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	modes := []failpoint.Mode{failpoint.ModeError, failpoint.ModeDelay, failpoint.ModePanic}
	rng := dist.NewRNG(c.Seed ^ 0x50AC_50AC_50AC_50AC)
	client := &http.Client{Timeout: 2 * time.Minute}

	var latencies []time.Duration
	armed, fired, refused, degraded, wrong, errs := 0, 0, 0, 0, 0, 0
	for j := 0; j < jobs; j++ {
		kind := dist.Kinds[j%len(dist.Kinds)]
		keys := dist.Gen{Kind: kind, Seed: c.Seed + uint64(j+1)*104729}.Keys(keysPerJob)
		raw := keyio.EncodeUint64s(keys)
		want := append([]uint64(nil), keys...)
		slices.Sort(want)
		wantRaw := keyio.EncodeUint64s(want)

		site := soakSites[rng.Uint64()%uint64(len(soakSites))]
		if site != "" {
			armed++
			failpoint.Set(site, failpoint.Schedule{
				Mode:  modes[rng.Uint64()%uint64(len(modes))],
				Nth:   1 + int(rng.Uint64()%3),
				Delay: 2 * time.Millisecond,
			})
		}
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/sort?key_type=uint64",
			"application/octet-stream", bytes.NewReader(raw))
		if site != "" && failpoint.Fired(site) > 0 {
			fired++
		}
		if site != "" {
			failpoint.Clear(site)
		}
		if err != nil {
			errs++
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		latencies = append(latencies, time.Since(start))
		switch {
		case rerr != nil:
			errs++
		case resp.StatusCode == http.StatusServiceUnavailable && site == "serve/admission":
			refused++ // the injected front-door refusal: honest, not wrong
		case resp.StatusCode != http.StatusOK:
			errs++
		case !bytes.Equal(body, wantRaw):
			wrong++
		default:
			if resp.Header.Get("X-Pgxsortd-Degraded") == "true" {
				degraded++
			}
		}
	}

	retries, err := scrapeCounter(client, ts.URL, "pgxsortd_retries_total")
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}

	// The acceptance invariants are enforced, not merely reported.
	if wrong > 0 {
		return nil, fmt.Errorf("soak: %d of %d jobs returned wrong bytes", wrong, jobs)
	}
	if maxRetries := int64(armed) * (retryAttempts - 1); retries > maxRetries {
		return nil, fmt.Errorf("soak: %d retries exceed the %d budget (%d armed jobs x %d)",
			retries, maxRetries, armed, retryAttempts-1)
	}
	if resp, err := client.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("soak: daemon not live after the storm (err=%v)", err)
	} else {
		resp.Body.Close()
	}

	slices.Sort(latencies)
	return []string{
		strconv.Itoa(procs),
		strconv.Itoa(jobs),
		strconv.Itoa(keysPerJob),
		strconv.Itoa(armed),
		strconv.Itoa(fired),
		strconv.FormatInt(retries, 10),
		strconv.Itoa(refused),
		strconv.Itoa(degraded),
		strconv.Itoa(errs),
		strconv.Itoa(wrong),
		ms(percentile(latencies, 0.50)),
		ms(percentile(latencies, 0.99)),
	}, nil
}

// scrapeCounter reads one unlabeled counter from /metrics.
func scrapeCounter(client *http.Client, base, name string) (int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("metric %s not in exposition", name)
}
