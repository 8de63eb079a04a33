package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// workloadResult is one workload's numbers in a result file: the
// untraced run's end-to-end metrics and, when a traced run was made,
// its per-layer metrics.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// setResult is one full set of runs, as -out writes it and -check reads it.
type setResult struct {
	Seed      uint64                     `json:"seed"`
	Env       map[string]string          `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readSet(path string) (*setResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse; negative means b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = b // no baseline to take a share of: any change counts in full
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// check compares two sets metric by metric: every end-to-end metric of
// every workload against its bound in BENCHMARK.json, in the metric's
// own direction, and every exact-count per-layer metric for equality.
// One-sided, b is the candidate and a the baseline; symmetric (two sets
// of the same code), neither may be worse than the other by more than
// the bound. It prints one row per workload and metric and reports
// whether the sets agree.
func check(spec *benchSpec, a, b *setResult, symmetric bool, out io.Writer) bool {
	exact := make(map[string]bool)
	for _, d := range perLayerDefs {
		if d.exact {
			exact[d.name] = true
		}
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tMISSING\n", wl.Name)
			ok = false
			continue
		}
		if ra.Failed+rb.Failed > 0 || !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t-\t0\tFAIL\n", wl.Name, ra.Failed, rb.Failed)
			ok = false
		}
		for _, sm := range spec.EndToEnd {
			ma, okA := ra.EndToEnd[sm.Name]
			mb, okB := rb.EndToEnd[sm.Name]
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tMISSING\n", wl.Name, sm.Name)
				ok = false
				continue
			}
			worse := worsening(sm.Better, ma.Value, mb.Value)
			if symmetric {
				worse = max(worse, worsening(sm.Better, mb.Value, ma.Value))
			}
			verdict := "ok"
			if worse > sm.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, sm.Name, ma.Value, mb.Value, worse*100, sm.Bound*100, verdict)
		}
		names := make([]string, 0, len(exact))
		for name := range exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, okA := ra.PerLayer[name]
			mb, okB := rb.PerLayer[name]
			if !okA || !okB || a.Seed != b.Seed {
				continue // no traced run in one of the sets, or other inputs
			}
			verdict := "ok"
			if ma.Value != mb.Value {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\texact\t=\t%s\n", wl.Name, name, ma.Value, mb.Value, verdict)
		}
	}
	tw.Flush()
	return ok
}
