package serve

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/transport"
)

// killerProxy forwards TCP connections to a target until a byte budget
// is spent, then kills every connection and its own listener — from the
// mesh's point of view, the peer behind it drops off the network
// mid-exchange and never comes back (reconnects get ECONNREFUSED).
// Unlike the resets the transport/write-frame failpoint injects, which
// the hardened transport is designed to recover from, this produces an
// unrecoverable link failure.
type killerProxy struct {
	ln     net.Listener
	target string
	limit  int64

	forwarded atomic.Int64
	killed    atomic.Bool
	mu        sync.Mutex
	conns     []net.Conn
}

func startKillerProxy(t *testing.T, target string, limit int64) *killerProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &killerProxy{ln: ln, target: target, limit: limit}
	go p.accept()
	t.Cleanup(p.kill)
	return p
}

func (p *killerProxy) addr() string { return p.ln.Addr().String() }

func (p *killerProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		go p.pump(up, c, true) // toward the target: counted
		go p.pump(c, up, false)
	}
}

// pump copies one direction; the counted direction spends the budget.
func (p *killerProxy) pump(dst, src net.Conn, counted bool) {
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			if counted && p.forwarded.Add(int64(n)) > p.limit {
				p.kill()
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// kill closes the listener and every proxied connection, once.
func (p *killerProxy) kill() {
	if !p.killed.CompareAndSwap(false, true) {
		return
	}
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
}

// reservePorts grabs n distinct loopback ports by binding and releasing
// them (the usual test trick; the race window is negligible).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestMidExchangeLinkLossDegradesToSingleNode proves the self-healing
// acceptance property for real network failure: when a peer's link dies
// mid-exchange and never recovers, the daemon still answers the job —
// the fatal mesh failure trips the circuit breaker, the job is rescued
// on the single-node fallback engine in the same request, and the result
// is byte-identical to what the healthy mesh (or the CLI) would produce.
// Afterwards the breaker is open, /readyz reports degraded, and the next
// job routes straight to the fallback without touching the dead mesh.
func TestMidExchangeLinkLossDegradesToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test: real TCP mesh")
	}
	const procs = 3
	listen := reservePorts(t, procs)
	// Nodes 1 and 2 reach node 0 through the killer proxy; node 0's own
	// dials go direct. 64KB through the proxy is far past the handshake
	// and splitter traffic but well inside the ~300KB exchange, so the
	// kill lands mid-exchange.
	proxy := startKillerProxy(t, listen[0], 64<<10)
	peers := []string{proxy.addr(), listen[1], listen[2]}

	cfg := Config{
		Procs:     procs,
		Workers:   2,
		Transport: transport.KindTCP,
		TCP: transport.Config{
			Listen:         listen,
			Peers:          peers,
			ConnectTimeout: 2 * time.Second,
			RetryBase:      2 * time.Millisecond,
			RetryMax:       20 * time.Millisecond,
			DialAttempts:   2,
			WindowFrames:   8,
			DrainTimeout:   time.Second,
		},
		BufferBytes: 32 << 10,
		KeyTypes:    []dist.KeyType{dist.KeyUint64},
		// The kill must land in the mesh exchange; a spooled job (the
		// PGXSORT_MEM_BUDGET lane clamps the spool threshold) never uses it.
		MemoryBudget: -1,
	}
	_, ts := testServer(t, cfg)

	keys := dist.Gen{Kind: dist.Uniform, Seed: 42}.Keys(60000)
	raw := keyio.EncodeUint64s(keys)
	want := append([]uint64(nil), keys...)
	slices.Sort(want)
	wantRaw := keyio.EncodeUint64s(want)

	post := func(label string) (*http.Response, []byte, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/sort?deadline_ms=20000&no_cache=true",
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s POST: %v", label, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body, time.Since(start)
	}

	resp, body, elapsed := post("rescue")
	if !proxy.killed.Load() {
		t.Fatalf("proxy never tripped: only %d bytes forwarded — the kill must land mid-exchange", proxy.forwarded.Load())
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 via the degraded fallback after mid-exchange link loss", resp.StatusCode, bytes.TrimSpace(body))
	}
	if resp.Header.Get("X-Pgxsortd-Degraded") != "true" {
		t.Fatal("rescued answer is not marked degraded")
	}
	if !bytes.Equal(body, wantRaw) {
		t.Fatalf("degraded result differs from the true sort (%d vs %d bytes)", len(body), len(wantRaw))
	}
	if elapsed > 25*time.Second {
		t.Fatalf("degraded answer took %v; the rescue must be bounded, not a transport hang", elapsed)
	}
	t.Logf("link loss rescued in-request in %v", elapsed)

	// The breaker is open now: readyz says degraded, metrics agree, and
	// the next job goes straight to the fallback — no mesh, still right.
	if resp, rbody := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || !bytes.Contains([]byte(rbody), []byte("degraded")) {
		t.Errorf("readyz after link loss: %d %q, want 200 degraded", resp.StatusCode, rbody)
	}
	if _, exposition := getBody(t, ts.URL+"/metrics"); !bytes.Contains([]byte(exposition), []byte(`pgxsortd_breaker_state{key_type="uint64"} 1`)) {
		t.Error("metrics scrape lacks an open uint64 breaker")
	}
	resp, body, elapsed = post("breaker-open")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pgxsortd-Degraded") != "true" {
		t.Fatalf("breaker-open job: status %d degraded=%q, want 200 degraded", resp.StatusCode, resp.Header.Get("X-Pgxsortd-Degraded"))
	}
	if !bytes.Equal(body, wantRaw) {
		t.Fatal("breaker-open result differs from the true sort")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("breaker-open job took %v; an open breaker must skip the dead mesh entirely", elapsed)
	}

	// The server itself stays alive: liveness and metrics still answer.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after link loss: %d", resp.StatusCode)
	}
	if _, exposition := getBody(t, ts.URL+"/metrics"); !bytes.Contains([]byte(exposition), []byte("pgxsortd_up 1")) {
		t.Error("metrics scrape after link loss lacks pgxsortd_up 1")
	}
}
