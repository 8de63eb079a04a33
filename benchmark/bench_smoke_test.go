package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// lastLine parses the result line a single-workload run prints last.
func lastLine(t *testing.T, out string) runResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload small, untraced and traced, and holds
// the names the command prints to exactly those in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	var haveWorkloads []string
	var allWorkloads []string
	for _, w := range workloads() {
		allWorkloads = append(allWorkloads, w.name())
		if _, ok := ungated[w.name()]; !ok {
			haveWorkloads = append(haveWorkloads, w.name())
		}
	}
	if !slices.Equal(haveWorkloads, wantWorkloads) {
		t.Fatalf("gated workloads %v, BENCHMARK.json has %v", haveWorkloads, wantWorkloads)
	}
	names := func(list []specMetric) []string {
		out := make([]string, len(list))
		for i, m := range list {
			out[i] = m.Name
		}
		slices.Sort(out)
		return out
	}
	start := time.Now()
	for _, name := range allWorkloads {
		for trace, want := range [][]string{names(spec.EndToEnd), names(spec.PerLayer)} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", name, "-keys", "4096", "-ops", "3", "-trace", []string{"0", "1"}[trace],
				"-trace-out", filepath.Join(t.TempDir(), "trace.json")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
			}
			res := lastLine(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if have := sortedKeys(res.Metrics); !slices.Equal(have, want) {
				t.Errorf("%s trace=%d prints %v\nBENCHMARK.json has %v", name, trace, have, want)
			}
			if trace == 1 {
				// The disk workloads must reach the spill tier and the
				// others must not.
				disk := name == "spill_uniform_u64" || name == "service_spooled_u64"
				if got := res.Metrics["spill.bytes_per_key"].Value; (got > 0) != disk {
					t.Errorf("%s: spill.bytes_per_key = %v", name, got)
				}
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("smoke runs took %v, want under 5s", d)
	}
}

// TestSpecMatchesTables holds BENCHMARK.json to the metric tables in
// spec.go, and every name to the contract's pattern.
func TestSpecMatchesTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the command's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %v", w.Name, nameRE)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, tc := range []struct {
		list []specMetric
		defs []metricDef
	}{{spec.EndToEnd, endToEndDefs}, {spec.PerLayer, perLayerDefs}} {
		if len(tc.list) != len(tc.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the table has %d", len(tc.list), len(tc.defs))
		}
		for i, d := range tc.defs {
			got := tc.list[i]
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %v", d.name, nameRE)
			}
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the table has %+v", i, got, d)
			}
		}
	}
	for _, bad := range []string{"", "has space", "-leading", "a/b", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("nameRE accepts %q", bad)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // exactly ten samples beyond p90
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{3, 0.9, 3, false},
	} {
		got, err := percentile(samples(tc.n), tc.q)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, ok=%v", tc.n, tc.q, got, err, tc.want, tc.ok)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must fail")
	}
}

// TestCalibrated pins the calibration rule: an operation that slowed by
// e^(sens*x + curve*x^2) beside a kernel that slowed by e^x reports the
// time it takes beside a kernel at its nominal time.
func TestCalibrated(t *testing.T) {
	for _, r := range []response{{}, {sens: 0.5}, {sens: 1}, {sens: 1.05, curve: 0.4}} {
		quiet := r.calibrated(60*time.Millisecond, calNominal)
		x := math.Log(1.5)
		slowed := time.Duration(60e6 * math.Exp(r.sens*x+r.curve*x*x))
		noisy := r.calibrated(slowed, calNominal*3/2)
		if quiet != 60*time.Millisecond || math.Abs(float64(noisy-quiet)) > 1e3 {
			t.Errorf("response %+v: quiet %v, noisy %v, want 60ms both", r, quiet, noisy)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "parent", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50) is covered once
		{ID: 3, Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: only [90,100) counts
		{ID: 4, Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{ID: 5, Name: "other", Start: 0, End: 100, Parent: -1},
	}
	if got := selfTime(spans, 0); got != 100-40-10 {
		t.Errorf("parent self time = %d, want 50", got)
	}
	if got := selfTime(spans, 1); got != 20-6 {
		t.Errorf("a self time = %d, want 14", got)
	}
	if got := selfTime(spans, 5); got != 100 {
		t.Errorf("childless span self time = %d, want 100", got)
	}
}

func TestCheck(t *testing.T) {
	if got := worsening("lower", 100, 110); got < 0.0999 || got > 0.1001 {
		t.Errorf("lower-is-better 100->110 worsens by %v, want 0.10", got)
	}
	if got := worsening("higher", 100, 110); got > -0.0999 {
		t.Errorf("higher-is-better 100->110 worsens by %v, want -0.10", got)
	}
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	set := func(p50, wire float64) *setResult {
		return &setResult{Seed: 1, Workloads: map[string]*workloadResult{"w": {Correct: true, Attempted: 1,
			EndToEnd: map[string]metric{"op_p50_ms": {Value: p50, Unit: "ms"}},
			PerLayer: map[string]metric{"comm.wire_bytes_per_key": {Value: wire, Unit: "B/key"}}}}}
	}
	var out bytes.Buffer
	if !check(spec, set(100, 12), set(109, 12), false, &out) {
		t.Errorf("9%% slower within a 10%% bound must pass:\n%s", out.String())
	}
	if check(spec, set(100, 12), set(111, 12), false, &out) {
		t.Error("11% slower must fail a 10% bound")
	}
	if !check(spec, set(100, 12), set(50, 12), false, &out) {
		t.Error("a faster candidate must pass one-sided")
	}
	if check(spec, set(100, 12), set(50, 12), true, &out) {
		t.Error("two sets of the same code 2x apart must disagree")
	}
	if check(spec, set(100, 12), set(100, 12.5), false, &out) {
		t.Error("an exact count that differs must fail")
	}
}
