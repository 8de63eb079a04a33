package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

// fastCfg keeps reconnect/backoff timings test-sized.
func fastCfg() Config {
	return Config{
		ConnectTimeout: 2 * time.Second,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
		DrainTimeout:   2 * time.Second,
	}
}

// TestReconnectAfterReset streams frames across one link while the
// connection is repeatedly killed out from under it; every frame must
// arrive exactly once, in order.
func TestReconnectAfterReset(t *testing.T) {
	cfg := fastCfg()
	cfg.WindowFrames = 8
	netw, err := NewTCPWithConfig[uint64](2, comm.U64Codec{}, cfg)
	if err != nil {
		t.Fatalf("NewTCPWithConfig: %v", err)
	}
	defer netw.Close()
	tn := netw.(*tcpNetwork[uint64])

	const msgs = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := netw.Endpoint(0)
		for i := 0; i < msgs; i++ {
			m := comm.Message[uint64]{Kind: comm.KData,
				Entries: []comm.Entry[uint64]{{Key: uint64(i), Proc: 0, Index: uint32(i)}}}
			if err := ep.Send(1, m); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if i%23 == 7 {
				tn.ResetLink(0, 1)
			}
		}
	}()

	rx := netw.Endpoint(1)
	for i := 0; i < msgs; i++ {
		m, ok := rx.Recv()
		if !ok {
			t.Fatalf("network closed after %d/%d messages", i, msgs)
		}
		if got := m.Entries[0].Key; got != uint64(i) {
			t.Fatalf("message %d: got key %d (lost or duplicated frames)", i, got)
		}
		if m.Release != nil {
			m.Release()
		}
	}
	wg.Wait()
	if rec := netw.Endpoint(0).Stats().Reconnects(); rec == 0 {
		t.Error("expected at least one recorded reconnect")
	}
}

// TestWriteFrameFailpoint drives the same recovery through the
// transport/write-frame failpoint, the way engine chaos tests inject
// resets: a burst of injected write errors, each one a reset the writer
// redials and retransmits through.
func TestWriteFrameFailpoint(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	netw, err := NewTCPWithConfig[uint64](2, comm.U64Codec{}, fastCfg())
	if err != nil {
		t.Fatalf("NewTCPWithConfig: %v", err)
	}
	defer netw.Close()
	// Count stays below DialAttempts: every fire is one no-progress cycle.
	const burst = 4
	failpoint.Set(FpWriteFrame, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 10, Count: burst})

	const msgs = 100
	go func() {
		ep := netw.Endpoint(0)
		for i := 0; i < msgs; i++ {
			m := comm.Message[uint64]{Kind: comm.KData,
				Entries: []comm.Entry[uint64]{{Key: uint64(i)}}}
			if err := ep.Send(1, m); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	rx := netw.Endpoint(1)
	for i := 0; i < msgs; i++ {
		m, ok := rx.Recv()
		if !ok {
			t.Fatalf("network closed after %d/%d", i, msgs)
		}
		if got := m.Entries[0].Key; got != uint64(i) {
			t.Fatalf("message %d: got key %d", i, got)
		}
		if m.Release != nil {
			m.Release()
		}
	}
	if got := failpoint.Fired(FpWriteFrame); got != burst {
		t.Errorf("write-frame site fired %d times, want %d", got, burst)
	}
	if rec := netw.Endpoint(0).Stats().Reconnects(); rec == 0 {
		t.Error("injected write errors caused no recorded reconnect")
	}
}

// stubbornPeer accepts connections and completes the transport handshake
// but never acknowledges a frame: the picture of a peer that is up yet
// wedged. It returns the address to dial.
func stubbornPeer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("stub listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var hs [hsBytes]byte
				if _, err := io.ReadFull(c, hs[:]); err != nil {
					return
				}
				var rep [ackBytes]byte
				binary.LittleEndian.PutUint64(rep[:], 0)
				if _, err := c.Write(rep[:]); err != nil {
					return
				}
				io.Copy(io.Discard, c) // swallow frames, never ack
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestAckDeadlineSurfacesTypedError points a link at a peer that accepts
// and handshakes but never acknowledges: the ack deadline must expire,
// the reconnect budget must exhaust, and Send must surface a LinkError
// wrapping a DeadlineError.
func TestAckDeadlineSurfacesTypedError(t *testing.T) {
	cfg := fastCfg()
	cfg.AckTimeout = 30 * time.Millisecond
	cfg.DialAttempts = 3
	cfg.WindowFrames = 2
	cfg.Peers = []string{"", stubbornPeer(t)}
	netw, err := NewTCPWithConfig[uint64](2, comm.U64Codec{}, cfg)
	if err != nil {
		t.Fatalf("NewTCPWithConfig: %v", err)
	}
	defer netw.Close()

	ep := netw.Endpoint(0)
	var sendErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m := comm.Message[uint64]{Kind: comm.KControl, Ints: []int64{1}}
		if sendErr = ep.Send(1, m); sendErr != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("sends kept succeeding against a peer that never acks")
	}
	var le *LinkError
	if !errors.As(sendErr, &le) {
		t.Fatalf("send error %v (%T) is not a *LinkError", sendErr, sendErr)
	}
	var de *DeadlineError
	if !errors.As(sendErr, &de) {
		t.Fatalf("link error %v does not wrap a *DeadlineError", sendErr)
	}
	if de.Op != "await-ack" {
		t.Errorf("deadline op = %q, want await-ack", de.Op)
	}
}

// TestFrameTooLarge checks both that oversized sends fail fast with the
// typed error and that normal-size frames still pass.
func TestFrameTooLarge(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxFrameBytes = 1024
	netw, err := NewTCPWithConfig[uint64](2, comm.U64Codec{}, cfg)
	if err != nil {
		t.Fatalf("NewTCPWithConfig: %v", err)
	}
	defer netw.Close()
	ep := netw.Endpoint(0)
	big := comm.Message[uint64]{Kind: comm.KData, Entries: make([]comm.Entry[uint64], 100)}
	if err := ep.Send(1, big); !errors.Is(err, comm.ErrFrameTooLarge) {
		t.Fatalf("oversized send error = %v, want ErrFrameTooLarge", err)
	}
	small := comm.Message[uint64]{Kind: comm.KControl, Ints: []int64{7}}
	if err := ep.Send(1, small); err != nil {
		t.Fatalf("small send: %v", err)
	}
	if m, ok := netw.Endpoint(1).Recv(); !ok || m.Ints[0] != 7 {
		t.Fatalf("small recv = %+v, %v", m, ok)
	}
}

// TestCloseDrainsInFlight fires a burst and closes immediately: the
// graceful drain must deliver every frame before tearing down.
func TestCloseDrainsInFlight(t *testing.T) {
	cfg := fastCfg()
	netw, err := NewTCPWithConfig[uint64](2, comm.U64Codec{}, cfg)
	if err != nil {
		t.Fatalf("NewTCPWithConfig: %v", err)
	}
	const msgs = 200
	ep := netw.Endpoint(0)
	for i := 0; i < msgs; i++ {
		if err := ep.Send(1, comm.Message[uint64]{Kind: comm.KControl, Ints: []int64{int64(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := netw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rx := netw.Endpoint(1)
	for i := 0; i < msgs; i++ {
		m, ok := rx.Recv()
		if !ok {
			t.Fatalf("drained only %d/%d frames before close", i, msgs)
		}
		if m.Ints[0] != int64(i) {
			t.Fatalf("frame %d out of order: %d", i, m.Ints[0])
		}
	}
	if _, ok := rx.Recv(); ok {
		t.Fatal("Recv reported ok on a closed, drained network")
	}
}

// TestCloseLeaksNoGoroutines runs traffic with injected resets, closes,
// and requires the goroutine count to return to its baseline.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		cfg := fastCfg()
		netw, err := NewTCPWithConfig[uint64](4, comm.U64Codec{}, cfg)
		if err != nil {
			t.Fatalf("NewTCPWithConfig: %v", err)
		}
		tn := netw.(*tcpNetwork[uint64])
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				ep := netw.Endpoint(i)
				for k := 0; k < 50; k++ {
					ep.Send((i+1)%4, comm.Message[uint64]{Kind: comm.KControl, Ints: []int64{int64(k)}})
					if k == 25 {
						tn.ResetLink(i, (i+1)%4)
					}
				}
			}(i)
			go func(i int) {
				defer wg.Done()
				ep := netw.Endpoint(i)
				for k := 0; k < 50; k++ {
					if _, ok := ep.Recv(); !ok {
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if err := netw.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 { // tolerate runtime helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPartialMeshTwoProcesses simulates the two-host deployment inside
// one test: two networks, each materializing only its own node, wired
// together by explicit peer addresses.
func TestPartialMeshTwoProcesses(t *testing.T) {
	portA, portB := freePort(t), freePort(t)
	addrA := fmt.Sprintf("127.0.0.1:%d", portA)
	addrB := fmt.Sprintf("127.0.0.1:%d", portB)
	peers := []string{addrA, addrB}

	mk := func(self int, listen string) (Network[uint64], error) {
		cfg := fastCfg()
		cfg.Listen = make([]string, 2)
		cfg.Listen[self] = listen
		cfg.Peers = peers
		cfg.LocalNodes = []int{self}
		return NewTCPWithConfig[uint64](2, comm.U64Codec{}, cfg)
	}

	// "Host A" comes up first and retries its dial until "host B" exists.
	type res struct {
		n   Network[uint64]
		err error
	}
	aC := make(chan res, 1)
	go func() {
		n, err := mk(0, addrA)
		aC <- res{n, err}
	}()
	time.Sleep(30 * time.Millisecond)
	netB, err := mk(1, addrB)
	if err != nil {
		t.Fatalf("host B: %v", err)
	}
	defer netB.Close()
	ra := <-aC
	if ra.err != nil {
		t.Fatalf("host A: %v", ra.err)
	}
	netA := ra.n
	defer netA.Close()

	if netA.Endpoint(1) != nil || netB.Endpoint(0) != nil {
		t.Fatal("non-local endpoints must be nil on a partial mesh")
	}
	addrs := netA.(*tcpNetwork[uint64]).Addrs()
	if addrs[0] == "" || addrs[1] != "" {
		t.Fatalf("partial-mesh Addrs = %v: want only the local node bound", addrs)
	}
	if err := netA.Endpoint(0).Send(1, comm.Message[uint64]{Kind: comm.KControl, Ints: []int64{41}}); err != nil {
		t.Fatalf("A->B send: %v", err)
	}
	m, ok := netB.Endpoint(1).Recv()
	if !ok || m.Ints[0] != 41 || m.Src != 0 {
		t.Fatalf("B recv = %+v, %v", m, ok)
	}
	if err := netB.Endpoint(1).Send(0, comm.Message[uint64]{Kind: comm.KControl, Ints: []int64{42}}); err != nil {
		t.Fatalf("B->A send: %v", err)
	}
	m, ok = netA.Endpoint(0).Recv()
	if !ok || m.Ints[0] != 42 || m.Src != 1 {
		t.Fatalf("A recv = %+v, %v", m, ok)
	}
}

// freePort reserves an ephemeral port and releases it for reuse. Tiny
// race window, acceptable in tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("freePort: %v", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestConfigValidate covers the config shapes that cannot form a mesh.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"too many listen", Config{Listen: []string{"a", "b", "c"}}},
		{"too many peers", Config{Peers: []string{"a", "b", "c"}}},
		{"local out of range", Config{LocalNodes: []int{2}}},
		{"local duplicate", Config{LocalNodes: []int{0, 0}}},
		{"remote without peer addr", Config{LocalNodes: []int{0}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.validate(2); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, tc.cfg)
		}
	}
	good := Config{LocalNodes: []int{0}, Peers: []string{"", "host:1"}}
	if err := good.validate(2); err != nil {
		t.Errorf("valid partial config rejected: %v", err)
	}
}
