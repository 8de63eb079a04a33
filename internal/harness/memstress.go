package harness

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/serve"
)

// MemStressExp proves the bounded-memory service end to end (ISSUE 10):
// one pgxsortd server under a deliberately tiny per-node memory budget
// answers a sweep of octet-stream uploads from well under the spool
// threshold to ~20x the budget. Every answer must be byte-identical to a
// local reference sort, every body past the threshold must report
// X-Pgxsortd-Spooled, and every spooled job's trailer-borne
// tracker-accounted temp peak must stay under the fixed ceiling
// (2 x procs x budget + 1 MiB slack) — and, for the bodies at >= 10x the
// budget, under the body size itself, the out-of-core proof. The CSV
// charts peak bytes against body size so a regression that quietly
// buffers uploads again shows up as a diverging curve, not a green run.
func MemStressExp(c Config) ([]Table, error) {
	c = c.WithDefaults()
	procs := c.Procs[0]
	const (
		budget    = int64(64 << 10) // per-node engine budget
		threshold = int64(16 << 10) // spool past this many raw body bytes
	)
	// The honest accounting ceiling: phase-1 run formation tracks up to
	// two chunk slabs per node, plus fixed decoder/merge slack.
	ceiling := int64(2*procs)*budget + 1<<20

	srv, err := serve.New(serve.Config{
		Procs:          procs,
		Workers:        c.Workers,
		Transport:      c.Transport,
		MaxInflight:    c.Inflight,
		MemoryBudget:   budget,
		SpoolThreshold: threshold,
		SpillDir:       c.SpillDir,
	})
	if err != nil {
		return nil, fmt.Errorf("memstress: %w", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := &http.Client{Timeout: 2 * time.Minute}

	t := Table{
		ID: "memstress",
		Title: fmt.Sprintf("bounded-memory service: body size vs a %d-byte budget, p=%d",
			budget, procs),
		Header: []string{"point", "keys", "body_bytes", "body_over_budget",
			"spooled", "total_ms", "temp_peak_bytes", "peak_ceiling", "identical"},
	}

	// Key counts sized off ~8 wire bytes/key so the spooled bodies land
	// at or above their nominal budget multiples (uniform uint64 keys
	// varint-encode to ~9.5 bytes).
	points := []struct {
		label string
		keys  int
	}{
		{"under-threshold", 1000},
		{"2x-budget", int(2 * budget / 8)},
		{"10x-budget", int(10 * budget / 8)},
		{"20x-budget", int(20 * budget / 8)},
	}
	var maxPeak int64
	spooledJobs := 0
	for i, pt := range points {
		keys := dist.Gen{Kind: dist.Uniform, Seed: c.Seed + uint64(i+1)*104729}.Keys(pt.keys)
		raw := keyio.EncodeUint64s(keys)
		want := slices.Clone(keys)
		slices.Sort(want)
		wantRaw := keyio.EncodeUint64s(want)

		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/sort?key_type=uint64",
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("memstress %s: %w", pt.label, err)
		}
		// The whole chunked body must be consumed before resp.Trailer
		// is populated.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		if rerr != nil {
			return nil, fmt.Errorf("memstress %s: reading response: %w", pt.label, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("memstress %s: status %s: %s", pt.label, resp.Status, body)
		}
		if !bytes.Equal(body, wantRaw) {
			return nil, fmt.Errorf("memstress %s: %d-byte answer is not byte-identical to the reference sort",
				pt.label, len(body))
		}
		spooled := resp.Header.Get("X-Pgxsortd-Spooled") == "true"
		if wantSpool := int64(len(raw)) > threshold; spooled != wantSpool {
			return nil, fmt.Errorf("memstress %s: spooled=%v for a %d-byte body against a %d-byte threshold",
				pt.label, spooled, len(raw), threshold)
		}

		peakCell := "-"
		if spooled {
			spooledJobs++
			// The trailer arrives after the chunked body: the server only
			// knows its peak once the final merge has streamed out.
			peak, perr := strconv.ParseInt(resp.Trailer.Get("X-Pgxsortd-Temp-Peak"), 10, 64)
			if perr != nil || peak <= 0 {
				return nil, fmt.Errorf("memstress %s: missing X-Pgxsortd-Temp-Peak trailer (%q)",
					pt.label, resp.Trailer.Get("X-Pgxsortd-Temp-Peak"))
			}
			if peak > ceiling {
				return nil, fmt.Errorf("memstress %s: temp peak %d exceeds the %d-byte ceiling",
					pt.label, peak, ceiling)
			}
			if int64(len(raw)) >= 10*budget && peak >= int64(len(raw)) {
				return nil, fmt.Errorf("memstress %s: temp peak %d is not out of core against a %d-byte body",
					pt.label, peak, len(raw))
			}
			maxPeak = max(maxPeak, peak)
			peakCell = strconv.FormatInt(peak, 10)
		}

		t.Rows = append(t.Rows, []string{
			pt.label,
			strconv.Itoa(pt.keys),
			strconv.Itoa(len(raw)),
			fmt.Sprintf("%.1f", float64(len(raw))/float64(budget)),
			fmt.Sprintf("%v", spooled),
			ms(elapsed),
			peakCell,
			strconv.FormatInt(ceiling, 10),
			"yes", // the equality check above would have errored otherwise
		})
	}

	// Cross-check the governor's exported view against what the trailers
	// claimed: the process-wide peak gauge must cover the worst job, and
	// every spooled job must be counted.
	gaugePeak, err := scrapeCounter(client, ts.URL, "pgxsortd_mem_peak_bytes")
	if err != nil {
		return nil, fmt.Errorf("memstress: %w", err)
	}
	if gaugePeak < maxPeak {
		return nil, fmt.Errorf("memstress: mem_peak_bytes gauge %d below the worst job peak %d",
			gaugePeak, maxPeak)
	}
	spooledTotal, err := scrapeCounter(client, ts.URL, "pgxsortd_spooled_jobs_total")
	if err != nil {
		return nil, fmt.Errorf("memstress: %w", err)
	}
	if spooledTotal < int64(spooledJobs) {
		return nil, fmt.Errorf("memstress: spooled_jobs_total %d below the %d spooled uploads",
			spooledTotal, spooledJobs)
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("transport=%s, %d workers/proc, mem-budget=%d, spool-threshold=%d, uniform uint64 keys",
			c.Transport, c.Workers, budget, threshold),
		"every 200 is verified byte-identical to a local reference sort; bodies past the threshold",
		"must answer with X-Pgxsortd-Spooled and a trailer-borne tracker peak at most the",
		fmt.Sprintf("2 x procs x budget + 1MiB ceiling (%d); bodies at >= 10x the budget must also peak", ceiling),
		"below their own body size — the out-of-core proof the governor's gauges are checked against")
	return []Table{t}, nil
}
