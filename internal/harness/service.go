package harness

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/serve"
)

// ServiceExp measures sorting-as-a-service: a resident pgxsortd server
// (in-process, over httptest) under N concurrent clients streaming sort
// jobs at it. Each client submits mostly-distinct datasets plus one
// dataset shared by every client — the shared one exercises the
// content-hash result cache. The table reports client-observed p50/p99
// latency, cache hits, 429 rejections and errors per processor count:
// the service-level view of every engine-level win.
func ServiceExp(c Config) ([]Table, error) {
	c = c.WithDefaults()
	const clients = 8
	const jobsPerClient = 3
	keysPerJob := c.N / (clients * jobsPerClient)
	if keysPerJob < 1000 {
		keysPerJob = 1000
	}
	t := Table{
		ID:    "service",
		Title: fmt.Sprintf("pgxsortd under %d concurrent clients (uint64 keys)", clients),
		Header: []string{"procs", "clients", "jobs", "keys_per_job",
			"p50_ms", "p99_ms", "cache_hits", "http_429", "errors"},
	}
	for _, p := range c.Procs {
		row, err := c.serviceRound(p, clients, jobsPerClient, keysPerJob)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("transport=%s, %d workers/proc, scheduler inflight=%d", c.Transport, c.Workers, c.Inflight),
		"each client's last job is a dataset every client submits: submits arriving after the first",
		"completes hit the result cache (in-flight duplicates are not coalesced, so hits vary with timing);",
		"latency is client-observed wall time per job (octet-stream POST /v1/sort), p50/p99 over all jobs")
	return []Table{t}, nil
}

// serviceRound runs one processor-count point: start a server, unleash
// the clients, tear it down.
func (c Config) serviceRound(procs, clients, jobsPerClient, keysPerJob int) ([]string, error) {
	srv, err := serve.New(serve.Config{
		Procs:       procs,
		Workers:     c.Workers,
		Transport:   c.Transport,
		MaxInflight: c.Inflight,
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	type outcome struct {
		latency time.Duration
		status  int
		cached  bool
		err     error
	}
	results := make([][]outcome, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Minute}
			for j := 0; j < jobsPerClient; j++ {
				// Per-client seeds for the distinct jobs (offset so none
				// collides with the shared seed); the final job uses one
				// shared seed so every client submits the same bytes and
				// later arrivals hit the cache.
				seed := c.Seed + uint64(cl*jobsPerClient+j+1)*7919
				if j == jobsPerClient-1 {
					seed = c.Seed
				}
				kind := dist.Kinds[(cl+j)%len(dist.Kinds)]
				raw := keyio.EncodeUint64s(dist.Gen{Kind: kind, Seed: seed}.Keys(keysPerJob))
				if j == jobsPerClient-1 {
					raw = keyio.EncodeUint64s(dist.Gen{Kind: dist.Uniform, Seed: seed}.Keys(keysPerJob))
				}
				start := time.Now()
				o := outcome{}
				resp, err := client.Post(
					ts.URL+fmt.Sprintf("/v1/sort?key_type=uint64&tenant=client-%d", cl),
					"application/octet-stream", bytes.NewReader(raw))
				if err != nil {
					o.err = err
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					o.status = resp.StatusCode
					o.cached = resp.Header.Get("X-Pgxsortd-Cache") == "hit"
				}
				o.latency = time.Since(start)
				results[cl] = append(results[cl], o)
			}
		}(cl)
	}
	wg.Wait()

	var latencies []time.Duration
	cacheHits, rejected, failures := 0, 0, 0
	for _, rs := range results {
		for _, o := range rs {
			switch {
			case o.err != nil:
				failures++
			case o.status == http.StatusTooManyRequests:
				rejected++
			case o.status != http.StatusOK:
				failures++
			default:
				latencies = append(latencies, o.latency)
				if o.cached {
					cacheHits++
				}
			}
		}
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	return []string{
		fmt.Sprintf("%d", procs),
		fmt.Sprintf("%d", clients),
		fmt.Sprintf("%d", clients*jobsPerClient),
		fmt.Sprintf("%d", keysPerJob),
		ms(percentile(latencies, 0.50)),
		ms(percentile(latencies, 0.99)),
		fmt.Sprintf("%d", cacheHits),
		fmt.Sprintf("%d", rejected),
		fmt.Sprintf("%d", failures),
	}, nil
}

// percentile picks the nearest-rank percentile from sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}
