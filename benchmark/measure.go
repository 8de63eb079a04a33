package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
)

// warmupOps is how many untimed operations follow each set-up; they
// belong to setup_s.
const warmupOps = 3

// traceBlock is the length of the alternating traced and untraced runs
// of operations in a traced window: one lap of the rotating inputs, and
// one hot request of the mixed service traffic.
const traceBlock = 4

// calNominal is what one run of the calibration kernel is taken to
// last. The box this benchmark runs on is shared: for minutes at a time
// the neighbours load the memory system and parallel memory-bound work
// gets up to 3x slower or faster (measured: the same 2^19-key Sort at
// 61..125 ms median between one hour and the next, with the kernel's own
// time moving in step), so a wall time alone says more about the
// neighbours than about the program. Every timed operation is therefore
// paired with a run of the kernel immediately before it, and the
// end-to-end times are reported as the time on a box where the kernel
// takes exactly 20 ms, by the workload's response to the kernel (see
// response). The raw wall times are printed beside the calibrated ones.
const calNominal = 20 * time.Millisecond

// calKeys is the size of each of the kernel's arrays: 8 MiB, twice the
// per-core L2, so the kernel is bound by the shared memory system the
// way the sorts are.
const calKeys = 1 << 20

// calibrator is the benchmark's own yardstick: on every CPU at once, two
// byte-wide counting-sort passes over a private array of calKeys keys.
// It shares no code with the program under test, so no change to the
// program moves it.
type calibrator struct {
	src, dst [][]uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		c.src = append(c.src, dist.Gen{Kind: dist.Uniform, Seed: uint64(g), Domain: wideDomain}.Keys(calKeys))
		c.dst = append(c.dst, make([]uint64, calKeys))
	}
	return c
}

func scatterPass(dst, src []uint64, shift uint) {
	var next [256]int
	for _, k := range src {
		next[(k>>shift)&0xff]++
	}
	sum := 0
	for b, n := range next {
		next[b] = sum
		sum += n
	}
	for _, k := range src {
		b := (k >> shift) & 0xff
		dst[next[b]] = k
		next[b]++
	}
}

// run executes the kernel once and returns its wall time.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range c.src {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scatterPass(c.dst[g], c.src[g], 8)
			scatterPass(c.src[g], c.dst[g], 40)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// response is how a workload's operations follow the calibration kernel:
// when the neighbours slow the kernel by a factor f = e^x, the operations
// slow by e^(sens*x + curve*x^2). sens is the share of the kernel's
// slowdown the workload takes part in (1 for work as memory-bound as the
// kernel, less for work that also computes, makes system calls or writes
// files). curve says that the workload leaves the kernel behind at both
// ends: under the heaviest load the kernel's time saturates while the
// workload's keeps growing, and on the quietest box the kernel speeds up
// by more than the workload does. The values are fitted, see workloads.
type response struct {
	sens, curve float64
}

// calibrated is the wall time scaled to a box where the kernel, which took
// cal next to it, takes calNominal.
func (r response) calibrated(wall, cal time.Duration) time.Duration {
	x := math.Log(float64(cal) / float64(calNominal))
	return time.Duration(float64(wall) * math.Exp(-r.sens*x-r.curve*x*x))
}

// opOutcome is what one operation reports: its size and wall time,
// whether it failed (errored, was refused, or returned a wrong byte),
// and what the program's public outputs said about it.
type opOutcome struct {
	keys   int
	wall   time.Duration
	cal    time.Duration // the calibration kernel run just before this operation
	failed bool
	why    string // failure reason, printed to stderr
	traced bool

	rep *core.Report // engine workloads: a copy of the Result's Report

	// Service workloads: response headers, trailer and httptrace.
	hot      bool // the request was expected to hit the cache
	hit      bool // X-Pgxsortd-Cache said hit
	jobID    string
	ttfb     time.Duration
	download time.Duration
	tempPeak int64
}

func failedOp(keys int, wall time.Duration, format string, args ...any) opOutcome {
	return opOutcome{keys: keys, wall: wall, failed: true, why: fmt.Sprintf(format, args...)}
}

// percentile returns the nearest-rank q-quantile of samples sorted
// ascending. The error says the rule "at least ten samples lie beyond
// the reported percentile" does not hold (p90 needs 100 samples); the
// value is still the best the samples give.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(q*float64(n)+0.999999) - 1
	rank = min(max(rank, 0), n-1)
	var err error
	if beyond := n - 1 - rank; beyond < 10 {
		err = fmt.Errorf("p%.0f of %d samples has fewer than 10 samples beyond it", q*100, n)
	}
	return sorted[rank], err
}

// median of unsorted values; 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// gcSample reads the process counters the proc.* metrics are deltas of.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64 // automatic cycles only: the benchmark's own runtime.GC calls are excluded
}

func readGC() gcSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// peakRSSMB reads VmHWM, the process's high-water resident set.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// rendezvous is where the clients of a window meet between blocks. The
// last to arrive is the leader: alone on the machine, it decides
// whether the window goes on and runs the calibration kernel, then
// releases the others with the answer.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	clients int
	waiting int
	round   int
	stop    bool
	cal     time.Duration
}

func newRendezvous(clients int) *rendezvous {
	r := &rendezvous{clients: clients}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// wait blocks until every client has arrived. The last one returns at
// once with leader = true and owes a release; the others return with
// what the leader released.
func (r *rendezvous) wait() (leader, stop bool, cal time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waiting++
	if r.waiting == r.clients {
		return true, false, 0
	}
	for round := r.round; round == r.round; {
		r.cond.Wait()
	}
	return false, r.stop, r.cal
}

func (r *rendezvous) release(stop bool, cal time.Duration) {
	r.mu.Lock()
	r.stop, r.cal = stop, cal
	r.waiting = 0
	r.round++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// window is one timed run of a workload.
type window struct {
	resp       response      // the workload's response to the calibration kernel
	perClient  [][]opOutcome // each client's operations, in order
	outs       []opOutcome   // all of them, client by client
	allocBytes uint64
	mallocs    uint64
	gc         gcSample // deltas over the window
}

// runWindow drives the workload closed-loop: each client sends its next
// operation when the previous one has returned. Before every operation
// the clients meet, the heap is collected and the calibration kernel
// runs; none of that is in any operation's own time. Concurrent clients
// therefore run in rounds: operation i of every client starts at the
// same moment, so a miss always shares the machine with the other
// client's miss and a hit with its hit, which is what makes the mixed
// traffic's times repeat. The window ends at the first meeting past the
// deadline, or after ops operations per client when ops > 0.
// With a tracer, runs of traceBlock operations are traced and untraced
// in turn, so one window yields both sides of trace.overhead_share on
// the same rotation of inputs.
func runWindow(w workload, cal *calibrator, seconds float64, ops int, tr *tracer) window {
	clients := w.clients()
	perClient := make([][]opOutcome, clients)
	meet := newRendezvous(clients)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := readGC()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				leader, stop, calWall := meet.wait()
				if leader {
					stop = ops > 0 && i >= ops || ops <= 0 && !time.Now().Before(deadline)
					if !stop {
						runtime.GC()
						calWall = cal.run()
					}
					meet.release(stop, calWall)
				}
				if stop {
					return
				}
				var t *tracer
				if (i/traceBlock)%2 == 0 {
					t = tr
				}
				out := w.op(c, i, t)
				out.traced, out.cal = t != nil, calWall
				perClient[c] = append(perClient[c], out)
			}
		}()
	}
	wg.Wait()
	win := window{resp: w.response(), perClient: perClient}
	runtime.ReadMemStats(&m1)
	g1 := readGC()
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.gc = gcSample{gcCPU: g1.gcCPU - g0.gcCPU, totalCPU: g1.totalCPU - g0.totalCPU, cycles: g1.cycles - g0.cycles}
	for _, outs := range perClient {
		win.outs = append(win.outs, outs...)
	}
	return win
}

// timing is what a window's operations add up to.
type timing struct {
	attempted, failed int
	keys              int       // keys of successful operations
	lap, lapCal       float64   // seconds one typical lap of traceBlock rounds keeps the system busy: raw, and calibrated
	lapKeys           float64   // keys sorted in such a lap
	walls, wallsCal   []float64 // successful operations' times in ms, sorted: raw, and calibrated
	cals              []float64 // calibration kernel runs, ms
}

// keysPerS is the throughput of a typical lap.
func (t *timing) keysPerS(calibrated bool) float64 {
	if calibrated {
		return t.lapKeys / t.lapCal
	}
	return t.lapKeys / t.lap
}

// tally adds a window up. The system is busy in round i for as long as
// the slowest client's operation i takes (clients are closed loops
// without think time). Rounds repeat with period traceBlock — the lap of
// the rotating inputs, the three misses and one hit of the mixed traffic
// — so a typical lap is the sum, over the lap's positions, of the median
// busy time of the rounds at that position. A median rather than a mean:
// when the neighbours are noisy a mean follows how often they burst in
// (ten runs of one workload: quartiles 10-16 % apart, against 3-5 % so).
func (win *window) tally() timing {
	var t timing
	rounds := 0
	for _, outs := range win.perClient {
		rounds = max(rounds, len(outs))
	}
	slowest := make([]time.Duration, rounds)
	calOf := make([]time.Duration, rounds)
	for _, outs := range win.perClient {
		for i, o := range outs {
			t.attempted++
			slowest[i] = max(slowest[i], o.wall)
			calOf[i] = o.cal
			if o.failed {
				t.failed++
				continue
			}
			t.keys += o.keys
			t.walls = append(t.walls, ms(o.wall))
			t.wallsCal = append(t.wallsCal, ms(win.resp.calibrated(o.wall, o.cal)))
		}
	}
	var at, atCal [traceBlock][]float64
	for i, d := range slowest {
		at[i%traceBlock] = append(at[i%traceBlock], d.Seconds())
		atCal[i%traceBlock] = append(atCal[i%traceBlock], win.resp.calibrated(d, calOf[i]).Seconds())
		t.cals = append(t.cals, ms(calOf[i]))
	}
	for pos := range at {
		if len(at[pos]) > 0 {
			t.lap += median(at[pos])
			t.lapCal += median(atCal[pos])
			t.lapKeys += float64(t.keys) / float64(rounds)
		}
	}
	slices.Sort(t.walls)
	slices.Sort(t.wallsCal)
	return t
}

// writeOps writes one line per operation of the window — client, index,
// wall ms, the kernel run before it in ms, whether it failed — which is
// what a workload's response is fitted from (README, "Calibration").
func (win *window) writeOps(path string) error {
	var b strings.Builder
	b.WriteString("client op wall_ms kernel_ms failed\n")
	for c, outs := range win.perClient {
		for i, o := range outs {
			fmt.Fprintf(&b, "%d %d %.4f %.4f %t\n", c, i, ms(o.wall), ms(o.cal), o.failed)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// endToEnd derives the user-visible metrics from an untraced window and
// prints the raw wall-clock numbers behind the calibrated ones.
func (win *window) endToEnd(t *timing, name string, m *metrics, out, notes io.Writer) {
	if t.keys == 0 {
		return
	}
	m.set("keys_per_s", t.keysPerS(true))
	p50, err := percentile(t.wallsCal, 0.5)
	if err != nil {
		fmt.Fprintf(notes, "note: op_p50_ms: %v\n", err)
	}
	m.set("op_p50_ms", p50)
	m.set("alloc_bytes_per_key", float64(win.allocBytes)/float64(t.keys))
	m.set("mallocs_per_kkey", float64(win.mallocs)/float64(t.keys)*1000)
	// Informational: the tail (demoted, see README) and the raw clock.
	p90, err := percentile(t.wallsCal, 0.9)
	if err != nil {
		fmt.Fprintf(notes, "note: op_p90_ms: %v\n", err)
	}
	raw50, _ := percentile(t.walls, 0.5)
	raw90, _ := percentile(t.walls, 0.9)
	fmt.Fprintf(out, "# %s calibrated op p90 %.4g ms; raw wall clock: %.6g keys/s, op p50 %.4g ms, p90 %.4g ms over %d ops; calibration kernel median %.4g ms (nominal %v)\n",
		name, p90, t.keysPerS(false), raw50, raw90, len(t.walls), median(t.cals), calNominal)
}

// measureSetup builds the system under test several times — at least
// minReps, then until budget is spent or maxReps is reached, so a cheap
// set-up gets the more samples — and returns the median calibrated time
// from the start of set-up to the end of the warm-up operations, and
// the median raw time. The last system built stays up for the window.
func measureSetup(w workload, cal *calibrator, minReps, maxReps int, budget time.Duration) (calibratedMedian, rawMedian time.Duration, err error) {
	var scaled, raw []float64
	start := time.Now()
	for r := 0; r < maxReps && (r < minReps || time.Since(start) < budget); r++ {
		if r > 0 {
			if err := w.teardown(); err != nil {
				return 0, 0, fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		kernel := cal.run()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < warmupOps; i++ {
			if out := w.warm(i); out.failed {
				w.teardown()
				return 0, 0, fmt.Errorf("warm-up op %d: %s", i, out.why)
			}
		}
		d := time.Since(t0)
		raw = append(raw, float64(d))
		scaled = append(scaled, float64(w.response().calibrated(d, kernel)))
	}
	return time.Duration(median(scaled)), time.Duration(median(raw)), nil
}
