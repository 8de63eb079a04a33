// Package core implements the paper's primary contribution: the PGX.D
// distributed sample sort (§IV). An Engine simulates p processors, each
// with its own buffer policy (data manager) and network endpoint
// (communication manager), and runs the six-step pipeline; its task
// manager is the goroutines each step starts for itself (WorkersPerProc
// bounds the steps that split their work):
//
//  1. parallel local sort: one radix over (norm, index) refs of the
//     keys, each pass split into equal slices among the workers, so the
//     slices need no merge. One run former (runs.go) does it over one
//     indexed source — a node's keys or records, or the chunk an upload
//     spool stages — in one chunk when the share fits
//     Options.MemoryBudget and, when it does not, in budget-sized ranges
//     of indexes written as run files of refs and merged back. Its output
//     is the share as sorted refs into the node's own input, 16 bytes a
//     key, which steps 2-4 run over
//  2. regular sampling, one 256KB/p buffer of samples to the master
//  3. master selects p-1 splitters, exact ranks in (key, proc, index)
//     order, and broadcasts them
//  4. binary-search range partitioning at those ranks (Fig 3)
//  5. asynchronous all-to-all exchange with precomputed write offsets:
//     of the refs themselves when the sort is of bare keys whose codec
//     has an exact norm and its inverse (comm.RefDenorm), a sort by ref;
//     otherwise of the entries the refs stand for, built once, here
//  6. merge of the received runs with the balanced merging handler (Fig 2),
//     after the exchange barrier, in one of two exchange sinks: resident
//     (a sort by ref keeps a provenance word beside each ref and builds
//     each entry once, into the exact-size result) or, when the runs
//     exceed Options.MemoryBudget, spilled — streamed back from spill
//     files, a sort by ref's chunks turned into entries on the way in
//
// Every entry keeps its provenance (origin processor and index), the
// result supports binary search and top-k retrieval, and several datasets
// can be sorted simultaneously over one engine — the API surface the
// paper describes in §III-IV. An upload Spool runs the same step 1 as its
// keys land, into sorted runs on disk, and Engine.SortSpooled merges them
// with steps 2-5 elided: the runs merge at egress into a stream.
package core

import (
	"fmt"
	"os"

	"pgxsort/internal/sample"
	"pgxsort/internal/transport"
)

// Options configures an Engine. The zero value (after applying defaults)
// reproduces the paper's configuration; DisableInvestigator and
// SyncExchange exist for the harness ablations that measure the paper's
// design choices (ablation-investigator and table2; ablation-async).
type Options struct {
	// Procs is the number of simulated processors p. Default 4.
	Procs int
	// WorkersPerProc is the number of worker threads per processor
	// (the paper uses 32 on real machines): how many goroutines step 1's
	// ref sort and TopK's local scan split their work across, and, above
	// 1, step 6's one helper. Step 5 sends to each peer on a goroutine of
	// its own. Default 2.
	WorkersPerProc int
	// BufferBytes is the read/request buffer size that drives both the
	// sample count and data chunking. Default 256KB (the paper's value).
	BufferBytes int
	// SampleFactor scales the paper's sample count X = BufferBytes/p.
	// Default 1.0; Figure 9 sweeps 0.004 .. 1.4.
	SampleFactor float64
	// DisableInvestigator cuts on the splitters' keys alone (Figure 3b)
	// instead of at their exact ranks, which divide duplicates as the
	// investigator of Figure 3c does, within sample.Epsilon of balance.
	DisableInvestigator bool
	// SyncExchange replaces the asynchronous overlap of step 5 with a
	// bulk-synchronous send-barrier-receive schedule (ablation).
	SyncExchange bool
	// Transport selects the network: transport.KindChan (default) or
	// transport.KindTCP.
	Transport string
	// TCP shapes the TCP transport for real clusters: listen/dial
	// addresses per node, connect timeout and retry backoff, read/write/
	// ack deadlines, frame-size limit and per-link send windows. The zero
	// value is the loopback default. Ignored by the chan transport.
	TCP transport.Config
	// MaxInflight is the default admission cap of the SortMany scheduler:
	// how many datasets may be in flight at once (one of them in a
	// communication stage). Default 2. SortManyOpts.MaxInflight overrides
	// it per call.
	MaxInflight int
	// MemoryBudget caps each node's *temporary* entry memory (the merge
	// scratch, exchange assembly and other tracker-accounted staging —
	// the TempPeakBytes column, not the resident input/result). When a
	// stage would allocate past the budget it spills sorted runs to a
	// scratch file under SpillDir instead (internal/spill) and streams
	// them back through the merge, byte-identical to the in-memory run.
	// Zero reads the MemBudgetEnv environment variable (unset or
	// unparsable means unlimited); negative is explicitly unlimited,
	// ignoring the environment.
	MemoryBudget int64
	// SpillDir is where spilled runs live: a stage that spills writes all
	// of its runs to one scratch file in it. The file is unlinked the
	// moment it is created (pgxsort-*.scratch, gone from the directory at
	// once), so it is only a descriptor, and a crash leaves nothing
	// behind. The engine keeps its scratch files across stages and sorts:
	// never more than stages spilled at once, each cut to what its last
	// stage wrote, all closed by Close. Empty uses the system temp dir.
	// Put it on the fastest disk available: spill I/O sits on the
	// local-sort and merge critical paths.
	SpillDir string
}

// MemBudgetEnv is the environment variable the tier-1 spill ablation
// lane uses to force a per-node memory budget onto every sort that does
// not set one explicitly: the same K/M/G vocabulary as the CLIs'
// -mem-budget flag (see ParseMemBudget). Explicit Options.MemoryBudget
// settings — including negative for explicitly unlimited — always win.
const MemBudgetEnv = "PGXSORT_MEM_BUDGET"

// ParseMemBudget parses a human-friendly byte count for -mem-budget
// flags: a plain integer, or one with a K/M/G suffix (binary multiples,
// case-insensitive). Empty and "0" mean no budget.
func ParseMemBudget(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil || fmt.Sprint(n) != s {
		return 0, fmt.Errorf("core: bad memory budget %q (want e.g. 64M, 2G, 1048576)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("core: negative memory budget %q", s)
	}
	return n * mult, nil
}

// withDefaults returns a copy of o with defaults filled in.
func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = 4
	}
	if o.WorkersPerProc <= 0 {
		o.WorkersPerProc = 2
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = sample.DefaultBufferBytes
	}
	if o.SampleFactor <= 0 {
		o.SampleFactor = 1.0
	}
	if o.Transport == "" {
		o.Transport = transport.KindChan
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.MemoryBudget == 0 {
		if b, err := ParseMemBudget(os.Getenv(MemBudgetEnv)); err == nil {
			o.MemoryBudget = b
		}
	}
	return o
}

// validate reports configuration errors not fixable by defaulting.
func (o Options) validate() error {
	if o.Transport != transport.KindChan && o.Transport != transport.KindTCP {
		return fmt.Errorf("core: unknown transport %q", o.Transport)
	}
	if len(o.TCP.LocalNodes) > 0 {
		return fmt.Errorf("core: the engine hosts every node; TCP.LocalNodes is only for transport-level partial meshes")
	}
	return nil
}
