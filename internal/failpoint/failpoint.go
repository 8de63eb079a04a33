// Package failpoint is the stack-wide chaos surface and its only fault
// mechanism: a registry of named failure sites planted through the stack
// (the TCP writer, engine sends and stages, datamgr assembly, spill I/O,
// serve cache/admission/spool) that deterministic trigger schedules can
// arm to inject an error, a delay, or a panic. A connection reset is an
// error at transport/write-frame, so the reconnecting transport, the
// retry scheduler and the degraded-mode service all have a whole
// pipeline worth of failures to recover from.
//
// A schedule arms one site: the site fires starting at its Nth hit
// (1-based) and keeps firing for Count consecutive hits, then disarms.
// Sites are configured programmatically (Set, for tests such as the
// serve package's soak storm) or from the environment:
//
//	PGXSORT_FAILPOINTS=core/exchange:error:2,serve/cache-put:error:1
//
// where each clause is site:mode:nth[:count] and mode is error, delay
// or panic. Hit sites are deliberately cheap when nothing is armed: one
// atomic load on the hot path.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar names the environment variable parsed at process start.
const EnvVar = "PGXSORT_FAILPOINTS"

// Mode is what an armed site does when its schedule fires.
type Mode int

const (
	// ModeOff leaves the site inert.
	ModeOff Mode = iota
	// ModeError makes Hit return an injected *Error.
	ModeError
	// ModeDelay makes Hit sleep for the schedule's Delay.
	ModeDelay
	// ModePanic makes Hit panic with an injected *Error; the engine
	// recovers it into a Transient failure. Sites that cannot unwind
	// safely (concurrent senders in flight) use HitNoPanic, which
	// downgrades this mode to ModeError.
	ModePanic
)

// String names the mode as it appears in schedule specs.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeError:
		return "error"
	case ModeDelay:
		return "delay"
	case ModePanic:
		return "panic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// parseMode reads a schedule spec's mode token.
func parseMode(s string) (Mode, error) {
	switch s {
	case "error":
		return ModeError, nil
	case "delay":
		return ModeDelay, nil
	case "panic":
		return ModePanic, nil
	default:
		return ModeOff, fmt.Errorf("failpoint: unknown mode %q (want error, delay or panic)", s)
	}
}

// DefaultDelay is how long ModeDelay sleeps when the schedule does not
// say otherwise.
const DefaultDelay = 5 * time.Millisecond

// Schedule arms one site. The zero Nth and Count mean "first hit" and
// "once": Set normalizes them.
type Schedule struct {
	Mode Mode
	// Nth is the 1-based hit index at which the site starts firing.
	Nth int
	// Count is how many consecutive hits fire; <0 fires forever.
	Count int
	// Delay is the ModeDelay sleep duration.
	Delay time.Duration
}

func (s Schedule) withDefaults() Schedule {
	if s.Nth <= 0 {
		s.Nth = 1
	}
	if s.Count == 0 {
		s.Count = 1
	}
	if s.Delay <= 0 {
		s.Delay = DefaultDelay
	}
	return s
}

// ErrInjected is the sentinel every injected failure wraps, so any layer
// can ask errors.Is(err, failpoint.ErrInjected) — the taxonomy classes
// injected failures as Transient on the strength of it.
var ErrInjected = errors.New("failpoint: injected failure")

// Error is an injected failure carrying its site; it wraps ErrInjected.
type Error struct {
	Site string
}

func (e *Error) Error() string { return fmt.Sprintf("failpoint %s: injected failure", e.Site) }
func (e *Error) Unwrap() error { return ErrInjected }

// site is the armed state plus lifetime counters of one name.
type site struct {
	sched Schedule
	armed bool
	hits  int64
	fired int64
}

var (
	mu    sync.Mutex
	sites = map[string]*site{}
	// armedCount gates the hot path: Hit is a single atomic load while
	// no site is armed.
	armedCount atomic.Int32
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Configure(spec); err != nil {
			fmt.Fprintf(os.Stderr, "failpoint: ignoring %s: %v\n", EnvVar, err)
		}
	}
}

// Configure parses and arms a comma-separated schedule spec
// (site:mode:nth[:count] per clause). Earlier clauses survive a later
// clause's parse error; callers wanting all-or-nothing should Reset on
// error.
func Configure(spec string) error {
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return fmt.Errorf("failpoint: bad clause %q (want site:mode:nth[:count])", clause)
		}
		mode, err := parseMode(parts[1])
		if err != nil {
			return err
		}
		sched := Schedule{Mode: mode}
		if len(parts) >= 3 {
			if sched.Nth, err = strconv.Atoi(parts[2]); err != nil || sched.Nth < 1 {
				return fmt.Errorf("failpoint: bad nth in %q", clause)
			}
		}
		if len(parts) == 4 {
			if sched.Count, err = strconv.Atoi(parts[3]); err != nil || sched.Count == 0 {
				return fmt.Errorf("failpoint: bad count in %q", clause)
			}
		}
		Set(parts[0], sched)
	}
	return nil
}

// Set arms one site with a schedule, replacing any previous one. The
// site's hit counter keeps running across re-arms; the schedule's Nth
// counts hits from this arming.
func Set(name string, sched Schedule) {
	sched = sched.withDefaults()
	mu.Lock()
	defer mu.Unlock()
	st := sites[name]
	if st == nil {
		st = &site{}
		sites[name] = st
	}
	if !st.armed {
		armedCount.Add(1)
	}
	st.armed = true
	st.sched = sched
	st.hits = 0 // Nth counts from this arming
}

// Clear disarms one site, keeping its lifetime fired counter.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	if st := sites[name]; st != nil && st.armed {
		st.armed = false
		armedCount.Add(-1)
	}
}

// Reset disarms every site and zeroes all counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, st := range sites {
		if st.armed {
			armedCount.Add(-1)
		}
	}
	sites = map[string]*site{}
}

// Active reports whether any site is currently armed.
func Active() bool { return armedCount.Load() > 0 }

// Fired returns how many times a site has injected a failure (over the
// process lifetime, surviving Clear but not Reset).
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if st := sites[name]; st != nil {
		return st.fired
	}
	return 0
}

// FiredTotal sums Fired over every site.
func FiredTotal() int64 {
	mu.Lock()
	defer mu.Unlock()
	var n int64
	for _, st := range sites {
		n += st.fired
	}
	return n
}

// Sites lists every armed site, sorted.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	var names []string
	for name, st := range sites {
		if st.armed {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Hit marks one pass through a named site. It returns an injected error,
// sleeps, or panics according to the site's armed schedule — or does
// (almost) nothing when the site is not armed.
func Hit(name string) error { return hit(name, true) }

// HitNoPanic is Hit for sites that cannot unwind safely — a panic there
// would strand concurrent senders or an HTTP response mid-write — so
// ModePanic is downgraded to an injected error.
func HitNoPanic(name string) error { return hit(name, false) }

func hit(name string, allowPanic bool) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	st := sites[name]
	if st == nil || !st.armed {
		mu.Unlock()
		return nil
	}
	st.hits++
	n := st.hits
	fire := n >= int64(st.sched.Nth)
	if st.sched.Count > 0 {
		last := int64(st.sched.Nth) + int64(st.sched.Count) - 1
		if n > last {
			fire = false
		}
		if n >= last {
			// The schedule is spent after this hit; disarm so the site
			// goes back to the one-atomic-load fast path.
			st.armed = false
			armedCount.Add(-1)
		}
	}
	if fire {
		st.fired++
	}
	sched := st.sched
	mu.Unlock()
	if !fire {
		return nil
	}
	switch sched.Mode {
	case ModeDelay:
		time.Sleep(sched.Delay)
		return nil
	case ModePanic:
		if allowPanic {
			panic(&Error{Site: name})
		}
		return &Error{Site: name}
	default:
		return &Error{Site: name}
	}
}
