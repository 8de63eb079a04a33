package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// The metric tables below are the benchmark's vocabulary: every number
// the command prints is set through metrics.set, which refuses a name
// that is not listed here, and the smoke test holds BENCHMARK.json to
// exactly these names and units.

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the baseline a metric may worsen by
	exact              bool    // per-layer only: a count that must repeat bit-for-bit for a fixed seed
}

var endToEndDefs = []metricDef{
	{name: "keys_per_s", unit: "keys/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_bytes_per_key", unit: "B/key", better: "lower", bound: 0.15},
	{name: "mallocs_per_kkey", unit: "1/kkey", better: "lower", bound: 0.06},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayerDefs = []metricDef{
	// Demoted from the end-to-end list because they failed the two-set
	// agreement check on the shared reference box; they inform and do not
	// gate. op_p90_ms is the calibrated 90th percentile: it follows how
	// often the neighbours burst in (quartiles of ten runs 12-34 % apart).
	// raw.* are the wall-clock numbers behind the calibrated end-to-end
	// metrics and the calibration kernel's own time: the machine moves
	// them by more than any bound.
	{name: "op_p90_ms", unit: "ms", better: "lower"},
	{name: "raw.keys_per_s", unit: "keys/s", better: "higher"},
	{name: "raw.op_p50_ms", unit: "ms", better: "lower"},
	{name: "raw.op_p90_ms", unit: "ms", better: "lower"},
	{name: "raw.cal_ms", unit: "ms", better: "lower"},

	// core: Report.Steps is the per-step critical path (max over nodes);
	// barrier wait is folded into whichever step hits the barrier.
	{name: "core.step_local_sort_ms", unit: "ms", better: "lower"},
	{name: "core.step_sampling_ms", unit: "ms", better: "lower"},
	{name: "core.step_splitters_ms", unit: "ms", better: "lower"},
	{name: "core.step_partition_ms", unit: "ms", better: "lower"},
	{name: "core.step_exchange_ms", unit: "ms", better: "lower"},
	{name: "core.step_final_merge_ms", unit: "ms", better: "lower"},
	{name: "core.steps_sum_over_total", unit: "ratio", better: "lower"},
	{name: "core.facade_ms", unit: "ms", better: "lower"},
	{name: "core.merge_overlap_saved_ms", unit: "ms", better: "higher"},
	{name: "core.straggler_ratio", unit: "ratio", better: "lower"},
	{name: "core.efficiency_vs_radix", unit: "ratio", better: "higher"},

	{name: "lsort.radix_entry_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "lsort.radix_flat_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "lsort.kway_merge_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "lsort.balanced_merge_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "lsort.cursor_merge_ns_per_key", unit: "ns/key", better: "lower"},

	{name: "sample.load_imbalance", unit: "ratio", better: "lower", exact: true},
	{name: "sample.samples_per_proc", unit: "count", better: "lower", exact: true},
	{name: "sample.select_us", unit: "us", better: "lower"},
	{name: "sample.partition_us", unit: "us", better: "lower"},

	{name: "comm.wire_bytes_per_key", unit: "B/key", better: "lower", exact: true},
	{name: "comm.msgs_per_op", unit: "count", better: "lower", exact: true},
	{name: "comm.encode_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "comm.decode_ns_per_key", unit: "ns/key", better: "lower"},

	{name: "transport.alltoall_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "transport.msg_rtt_us", unit: "us", better: "lower"},
	{name: "transport.send_stall_ms", unit: "ms", better: "lower"},
	{name: "transport.frames_resent", unit: "count", better: "lower"},

	{name: "datamgr.chunks_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "datamgr.assembly_ns_per_key", unit: "ns/key", better: "lower"},

	{name: "alloc.temp_peak_mb", unit: "MB", better: "lower"},
	{name: "alloc.resident_bytes_per_key", unit: "B/key", better: "lower", exact: true},

	{name: "spill.bytes_per_key", unit: "B/key", better: "lower", exact: true},
	{name: "spill.read_amp", unit: "ratio", better: "lower"},
	{name: "spill.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "spill.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "spill.file_bytes_per_key", unit: "B/key", better: "lower", exact: true},

	{name: "keyio.decode_ns_per_key", unit: "ns/key", better: "lower"},
	{name: "keyio.encode_ns_per_key", unit: "ns/key", better: "lower"},

	{name: "serve.miss_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.hit_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.hit_share", unit: "ratio", better: "higher", exact: true},
	{name: "serve.ttfb_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.download_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.engine_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.admit_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.http_429", unit: "count/op", better: "lower", exact: true},
	{name: "serve.spooled_jobs", unit: "count/op", better: "lower", exact: true},
	{name: "serve.temp_peak_mb", unit: "MB", better: "lower"},

	// ref: the machine on this day, not a module. Denominators only.
	{name: "ref.slices_sort_keys_per_s", unit: "keys/s", better: "higher"},
	{name: "ref.radix_flat_keys_per_s", unit: "keys/s", better: "higher"},
	{name: "ref.memcpy_gb_per_s", unit: "GB/s", better: "higher"},
	{name: "ref.sha256_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "proc.gc_cycles_per_op", unit: "count/op", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// nameRE is the contract's rule for metric and workload names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's values against one of the tables above.
type metrics struct {
	defs  []metricDef
	units map[string]string
	vals  map[string]metric
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: defs, units: make(map[string]string, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m.units[d.name] = d.unit
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the metric table")
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// fillZero gives every metric of the table that the run did not set the
// value 0: a layer the workload bypasses reports no work, not no metric.
func (m *metrics) fillZero() {
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

// print writes one "workload metric value unit" line per metric, in the
// table's order.
func (m *metrics) print(out io.Writer, workload string) {
	for _, d := range m.defs {
		v := m.vals[d.name]
		fmt.Fprintf(out, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
}

// Shapes of BENCHMARK.json, read by -check for bounds and directions
// and by the smoke test.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

// findRoot returns the directory that holds BENCHMARK.json: the working
// directory when the command runs from a checkout's root, its parent
// when `go test` runs inside benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
