package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

// The TCP transport is a full mesh of simplex links: each ordered pair
// (i -> j) owns one connection carrying framed, sequence-numbered
// messages from i to j, with 8-byte cumulative acknowledgements flowing
// back on the same socket. Frames stay buffered at the sender until
// acknowledged, so a link survives connection loss: the writer redials
// with exponential backoff, the handshake tells it the receiver's next
// expected sequence number, and it retransmits exactly the suffix the
// receiver never delivered. Sequence checking on the receive side makes
// delivery exactly-once and per-link FIFO across any number of resets.
//
// Backpressure is a bounded per-link window (Config.WindowFrames) of
// frames that are queued or in flight; a full window blocks Send, and the
// blocked time is counted as slow-peer stall in the endpoint's Stats.

// frame header layout (little endian):
//
//	kind     uint8
//	flags    uint8
//	src      int32
//	sortID   int32
//	nEntries int32
//	nKeys    int32
//	nInts    int32
//	payload  uint32 (exact payload byte count)
//	seq      uint64
//
// The explicit payload size is what makes variable-width keys and record
// payloads framable: the receiver can no longer compute the payload size
// from the counts alone.
const headerBytes = 2 + 4*6 + 8

// handshake layout (little endian): magic, version, src, dst from the
// dialer; the acceptor replies with the 8-byte next expected sequence
// number for the (src -> dst) link, which doubles as a cumulative ack.
const (
	hsMagic   = "PGXS"
	hsVersion = 4 // v4 added the payload-size field to the frame header
	hsBytes   = 4 + 1 + 4 + 4
	ackBytes  = 8
)

// seqOffset is where the sequence number sits in the frame header.
const seqOffset = headerBytes - 8

// readBufBytes sizes a read loop's buffered reader: enough for a header
// and a control frame to arrive in one read, small enough that a data
// frame's payload bypasses it and lands in the frame buffer directly.
const readBufBytes = 4096

// frame is one message in wire form, retained until acknowledged. Header
// and payload share one buffer, so a frame goes out in one write without
// passing through another buffer on the way.
type frame struct {
	seq    uint64
	buf    []byte // header, then payload
	sentAt time.Time
}

// framePool recycles acknowledged frames, buffers included. A sort queues
// about all the frames a link will carry before the first ack returns, so
// a fixed free list would have to be a window deep per link to hit; this
// pool hits as often and lets the GC take an idle mesh's buffers back.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// putHeader writes m's frame header into b; the sequence number is
// stamped when the frame is first written. Refs count as entries, which
// is what they are on the wire, and comm.FlagRefs tells the read loop to
// decode them back into refs.
func putHeader[K any](b []byte, m *comm.Message[K], payload int) {
	b[0] = byte(m.Kind)
	b[1] = m.Flags
	if len(m.Refs) > 0 {
		b[1] |= comm.FlagRefs
	}
	binary.LittleEndian.PutUint32(b[2:], uint32(m.Src))
	binary.LittleEndian.PutUint32(b[6:], uint32(m.SortID))
	binary.LittleEndian.PutUint32(b[10:], uint32(m.DataLen()))
	binary.LittleEndian.PutUint32(b[14:], uint32(len(m.Keys)))
	binary.LittleEndian.PutUint32(b[18:], uint32(len(m.Ints)))
	binary.LittleEndian.PutUint32(b[22:], uint32(payload))
}

type tcpNetwork[K any] struct {
	p     int
	cfg   Config
	codec comm.Codec[K]
	local []bool

	eps       []*tcpEndpoint[K] // nil for non-local nodes
	links     [][]*link[K]      // links[i][j] for local i, j != i
	listeners []net.Listener    // nil for non-local nodes
	peerAddrs []string          // resolved dial addresses, indexed by node

	// recv[src][dst] carries the receive-side link state (next expected
	// sequence number, current connection); it survives connection swaps,
	// which is what makes redelivery exactly-once.
	recvMu sync.Mutex
	recv   [][]*recvState

	wg sync.WaitGroup // accept loops, read loops, writers, ack readers

	down         chan struct{} // closed on Close or permanent failure
	teardownDone chan struct{}
	closing      atomic.Bool
	shutdownOnce sync.Once

	mu          sync.Mutex
	failErr     error // first permanent failure (link broken)
	acceptErr   error // first real accept failure (not clean shutdown)
	acceptFails int64 // total real accept failures (bounded storage)
	drainErr    error // drain timeout on Close
}

type tcpEndpoint[K any] struct {
	net   *tcpNetwork[K]
	id    int
	inbox chan comm.Message[K]
	stats comm.Stats
}

// recvState is the receive side of one (src -> dst) link.
type recvState struct {
	installMu sync.Mutex // serializes connection swaps for the link

	mu       sync.Mutex
	expected uint64
	conn     net.Conn
	loopDone chan struct{} // closed when the current read loop exits
}

// NewTCP builds a loopback TCP network of p endpoints using codec for key
// serialization, with the default Config.
func NewTCP[K any](p int, codec comm.Codec[K]) (Network[K], error) {
	return NewTCPWithConfig(p, codec, Config{})
}

// NewTCPWithConfig builds a TCP network of p endpoints shaped by cfg:
// real listen/dial addresses, connect retry with backoff, read/write/ack
// deadlines, frame-size limits and bounded per-link send windows. The
// constructor returns once every outbound link of every local node is
// established (peers may come up late: dialing retries with backoff), or
// fails once any link exhausts its budget.
func NewTCPWithConfig[K any](p int, codec comm.Codec[K], cfg Config) (Network[K], error) {
	if codec == nil {
		return nil, fmt.Errorf("transport: tcp requires a codec")
	}
	if p <= 0 {
		return nil, fmt.Errorf("transport: need at least one node, got %d", p)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	n := &tcpNetwork[K]{
		p:            p,
		cfg:          cfg,
		codec:        codec,
		local:        cfg.localSet(p),
		down:         make(chan struct{}),
		teardownDone: make(chan struct{}),
	}
	n.eps = make([]*tcpEndpoint[K], p)
	n.listeners = make([]net.Listener, p)
	n.peerAddrs = make([]string, p)
	n.recv = make([][]*recvState, p)
	for i := range n.recv {
		n.recv[i] = make([]*recvState, p)
	}
	for i := 0; i < p; i++ {
		if !n.local[i] {
			continue
		}
		n.eps[i] = &tcpEndpoint[K]{net: n, id: i, inbox: make(chan comm.Message[K], inboxDepth)}
		l, err := net.Listen("tcp", cfg.listenAddr(i))
		if err != nil {
			n.shutdown(nil)
			<-n.teardownDone
			return nil, fmt.Errorf("transport: listen node %d on %q: %w", i, cfg.listenAddr(i), err)
		}
		n.listeners[i] = l
	}
	for j := 0; j < p; j++ {
		if addr := cfg.peerAddr(j); addr != "" {
			n.peerAddrs[j] = addr
		} else {
			// validate() guarantees non-local nodes have explicit
			// peer addresses, so the listener exists here.
			n.peerAddrs[j] = n.listeners[j].Addr().String()
		}
	}
	for i := 0; i < p; i++ {
		if n.listeners[i] == nil {
			continue
		}
		n.wg.Add(1)
		go n.acceptLoop(i)
	}
	n.links = make([][]*link[K], p)
	var allLinks []*link[K]
	for i := 0; i < p; i++ {
		if !n.local[i] {
			continue
		}
		n.links[i] = make([]*link[K], p)
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			l := newLink(n, i, j)
			n.links[i][j] = l
			allLinks = append(allLinks, l)
		}
	}
	for _, l := range allLinks {
		n.wg.Add(1)
		go l.run()
	}
	// Wait for the mesh: every outbound link connected, or any broken.
	for _, l := range allLinks {
		select {
		case <-l.ready:
		case <-n.down:
			err := n.Close()
			if err == nil {
				err = ErrClosed
			}
			return nil, err
		}
	}
	// A link that broke during the initial connect also closes ready;
	// re-check before handing out a doomed mesh.
	n.mu.Lock()
	failed := n.failErr
	n.mu.Unlock()
	if failed != nil {
		n.Close()
		return nil, failed
	}
	return n, nil
}

func (n *tcpNetwork[K]) P() int       { return n.p }
func (n *tcpNetwork[K]) Name() string { return KindTCP }

func (n *tcpNetwork[K]) isDown() bool {
	select {
	case <-n.down:
		return true
	default:
		return false
	}
}

// Endpoint returns node i's endpoint, or nil when i is not local to this
// process (Config.LocalNodes).
func (n *tcpNetwork[K]) Endpoint(i int) Endpoint[K] {
	if e := n.eps[i]; e != nil {
		return e
	}
	return nil
}

// Addrs reports the actual bound listener address of every local node
// ("" for non-local nodes) — useful when listening on ephemeral ports.
func (n *tcpNetwork[K]) Addrs() []string {
	out := make([]string, n.p)
	for i, l := range n.listeners {
		if l != nil {
			out[i] = l.Addr().String()
		}
	}
	return out
}

// ResetLink forcibly closes the live connection of the (src -> dst) link,
// simulating a network reset. The link's writer redials and retransmits;
// no data is lost. Returns false when the link does not exist locally or
// has no live connection. Tests call it to reset a link at an exact
// point; scheduled resets go through FpWriteFrame.
func (n *tcpNetwork[K]) ResetLink(src, dst int) bool {
	if src < 0 || src >= n.p || dst < 0 || dst >= n.p || src == dst || n.links[src] == nil {
		return false
	}
	l := n.links[src][dst]
	if l == nil {
		return false
	}
	l.mu.Lock()
	c := l.conn
	l.mu.Unlock()
	if c == nil {
		return false
	}
	c.Close()
	return true
}

// fail records a permanent failure and tears the network down in the
// background (a mesh with a broken link cannot complete any sort, so
// failing fast beats hanging).
func (n *tcpNetwork[K]) fail(err error) {
	n.mu.Lock()
	if n.failErr == nil {
		n.failErr = err
	}
	n.mu.Unlock()
	go n.shutdown(err)
}

// Err reports the first permanent failure (a broken link) recorded on
// this mesh, or nil while it is healthy — or merely Closed. The engine
// uses it to attach the real cause (e.g. a *LinkError) to the generic
// "network closed" its blocked receives observe, so failure
// classification sees Fatal instead of Unknown.
func (n *tcpNetwork[K]) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failErr
}

// closedErr is what Send/Close report once the network is down.
func (n *tcpNetwork[K]) closedErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failErr != nil {
		return n.failErr
	}
	return ErrClosed
}

// Close drains in-flight frames (bounded by Config.DrainTimeout), then
// tears the mesh down: connections and listeners close, every reader,
// writer and accept goroutine exits, and the inboxes close so pending
// Recv calls return ok=false. Close is idempotent and returns the first
// real failure observed over the network's lifetime: a broken link, an
// accept error that was not a clean shutdown, or a drain timeout.
func (n *tcpNetwork[K]) Close() error {
	n.shutdown(nil)
	<-n.teardownDone
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failErr != nil {
		return n.failErr
	}
	if n.acceptErr != nil {
		if n.acceptFails > 1 {
			return fmt.Errorf("%w (and %d more accept failures)", n.acceptErr, n.acceptFails-1)
		}
		return n.acceptErr
	}
	return n.drainErr
}

// shutdown runs the teardown exactly once. cause nil means a graceful
// Close: in-flight frames get a drain window before connections drop.
func (n *tcpNetwork[K]) shutdown(cause error) {
	n.shutdownOnce.Do(func() {
		n.closing.Store(true)
		if cause == nil {
			n.drainLinks()
		}
		close(n.down)
		// Close everything: blocked reads/writes/dials error out.
		for _, row := range n.links {
			for _, l := range row {
				if l != nil {
					l.stop()
				}
			}
		}
		// installMu serializes this sweep against installConn: either the
		// install completed and its connection is closed here, or the
		// install observes the down signal (closed above) and aborts.
		for _, row := range n.recv {
			for _, st := range row {
				if st != nil {
					st.installMu.Lock()
					st.mu.Lock()
					if st.conn != nil {
						st.conn.Close()
					}
					st.mu.Unlock()
					st.installMu.Unlock()
				}
			}
		}
		for _, l := range n.listeners {
			if l != nil {
				l.Close()
			}
		}
		n.wg.Wait()
		close(n.teardownDone)
	})
}

// drainLinks waits until every link's window is empty (all frames
// delivered and acknowledged) or the drain budget expires. A broken
// link's frames can never drain, so a failed network aborts the wait
// immediately instead of burning the whole budget.
func (n *tcpNetwork[K]) drainLinks() {
	deadline := time.Now().Add(n.cfg.DrainTimeout)
	for {
		n.mu.Lock()
		failed := n.failErr != nil
		n.mu.Unlock()
		if failed {
			return
		}
		pending := 0
		for _, row := range n.links {
			for _, l := range row {
				if l == nil {
					continue
				}
				select {
				case <-l.brokenC:
					return
				default:
				}
				pending += len(l.window)
			}
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			n.mu.Lock()
			n.drainErr = fmt.Errorf("transport: close drain timed out with %d frames in flight", pending)
			n.mu.Unlock()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// acceptLoop accepts inbound connections for local node j until the
// listener closes. A clean shutdown (listener closed by Close) ends the
// loop silently; any other accept failure is recorded — and surfaced by
// Close, satisfying the "don't swallow real accept errors" contract —
// but the loop keeps accepting after a backoff: transient conditions
// (EMFILE during reconnect churn, ECONNABORTED) must not permanently
// deafen a node whose dialers would happily retry.
func (n *tcpNetwork[K]) acceptLoop(j int) {
	defer n.wg.Done()
	backoff := n.cfg.RetryBase
	for {
		conn, err := n.listeners[j].Accept()
		if err != nil {
			if n.closing.Load() || errors.Is(err, net.ErrClosed) {
				return // clean shutdown
			}
			// Only the first error is kept (Close surfaces one error);
			// the rest are counted, not stored — a persistent failure
			// must not grow the heap one error per backoff tick.
			n.mu.Lock()
			if n.acceptErr == nil {
				n.acceptErr = fmt.Errorf("transport: accept node %d: %w", j, err)
			}
			n.acceptFails++
			n.mu.Unlock()
			select {
			case <-time.After(backoff):
			case <-n.down:
				return
			}
			if backoff *= 2; backoff > n.cfg.RetryMax {
				backoff = n.cfg.RetryMax
			}
			continue
		}
		backoff = n.cfg.RetryBase
		n.wg.Add(1)
		go n.handleInbound(conn, j)
	}
}

// handleInbound validates a dialer's handshake, swaps the link's
// connection (waiting out the previous read loop so two readers never
// race on the same sequence state), replies with the next expected
// sequence number and runs the read loop.
func (n *tcpNetwork[K]) handleInbound(conn net.Conn, dst int) {
	defer n.wg.Done()
	conn.SetDeadline(time.Now().Add(n.cfg.ConnectTimeout))
	var hs [hsBytes]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		conn.Close()
		return
	}
	if string(hs[:4]) != hsMagic || hs[4] != hsVersion {
		conn.Close()
		return
	}
	src := int(binary.LittleEndian.Uint32(hs[5:]))
	claimedDst := int(binary.LittleEndian.Uint32(hs[9:]))
	if src < 0 || src >= n.p || src == dst || claimedDst != dst {
		conn.Close()
		return
	}
	st := n.recvStateFor(src, dst)
	done, ok := n.installConn(conn, st)
	if !ok {
		conn.Close()
		return
	}
	n.readLoop(conn, src, dst, st, done)
}

// installConn swaps a fresh connection into the link's receive state:
// kill the previous connection, wait out its read loop (two readers must
// never race on the sequence state), reply to the handshake with the
// next expected sequence number, and record the new connection. The
// install mutex is held only for the swap, never across the read loop —
// a half-open predecessor is killed here, not waited on forever.
func (n *tcpNetwork[K]) installConn(conn net.Conn, st *recvState) (chan struct{}, bool) {
	st.installMu.Lock()
	defer st.installMu.Unlock()
	st.mu.Lock()
	old, oldDone := st.conn, st.loopDone
	st.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if oldDone != nil {
		select {
		case <-oldDone:
		case <-time.After(n.cfg.ConnectTimeout):
			// The previous read loop is wedged (e.g. a full inbox with a
			// stalled consumer). Reject this connection; the dialer backs
			// off and retries, by which time the loop has unwound.
			return nil, false
		case <-n.down:
			return nil, false
		}
	}
	st.mu.Lock()
	expected := st.expected
	st.mu.Unlock()
	// Fresh deadline for the reply: the oldDone wait above may have
	// consumed the accept-time budget, and a healthy reconnection must
	// not be rejected by an already-expired deadline.
	conn.SetDeadline(time.Now().Add(n.cfg.ConnectTimeout))
	var rep [ackBytes]byte
	binary.LittleEndian.PutUint64(rep[:], expected)
	if _, err := conn.Write(rep[:]); err != nil {
		return nil, false
	}
	conn.SetDeadline(time.Time{})
	// Still under installMu: if the teardown sweep already ran (down is
	// closed), installing now would leave a connection it never saw.
	if n.isDown() {
		return nil, false
	}
	done := make(chan struct{})
	st.mu.Lock()
	st.conn, st.loopDone = conn, done
	st.mu.Unlock()
	return done, true
}

func (n *tcpNetwork[K]) recvStateFor(src, dst int) *recvState {
	n.recvMu.Lock()
	defer n.recvMu.Unlock()
	st := n.recv[src][dst]
	if st == nil {
		st = &recvState{}
		n.recv[src][dst] = st
	}
	return st
}

// readLoop decodes frames arriving from src destined to endpoint dst,
// enforcing the frame-size limit, sequence order and the payload read
// deadline, and acknowledging every delivered frame.
func (n *tcpNetwork[K]) readLoop(conn net.Conn, src, dst int, st *recvState, done chan struct{}) {
	defer func() {
		st.mu.Lock()
		if st.conn == conn {
			st.conn = nil
		}
		st.mu.Unlock()
		conn.Close()
		close(done)
	}()
	r := bufio.NewReaderSize(conn, readBufBytes)
	ep := n.eps[dst]
	slabs := newRecvSlabs(n.codec)
	// One header, frame buffer and ack buffer serve every frame: a frame
	// allocates nothing but what its decode hands the consumer.
	var hdr [headerBytes]byte
	var buf []byte
	var ack [ackBytes]byte
	for {
		// Header reads carry no deadline: an idle peer is healthy.
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		m := comm.Message[K]{
			Kind:   comm.Kind(hdr[0]),
			Flags:  hdr[1],
			Src:    int(int32(binary.LittleEndian.Uint32(hdr[2:]))),
			SortID: int32(binary.LittleEndian.Uint32(hdr[6:])),
			Dst:    dst,
		}
		nEntries := int(int32(binary.LittleEndian.Uint32(hdr[10:])))
		nKeys := int(int32(binary.LittleEndian.Uint32(hdr[14:])))
		nInts := int(int32(binary.LittleEndian.Uint32(hdr[18:])))
		payload := int(binary.LittleEndian.Uint32(hdr[22:]))
		seq := binary.LittleEndian.Uint64(hdr[26:])
		if nEntries < 0 || nKeys < 0 || nInts < 0 {
			return // corrupt header; drop the connection
		}
		if comm.CheckFrame(payload, n.cfg.MaxFrameBytes) != nil {
			// Never size an allocation from an oversized header: treat it
			// as a protocol violation and drop the connection.
			return
		}
		// Once a header has arrived the payload must follow promptly.
		conn.SetReadDeadline(time.Now().Add(n.cfg.ReadTimeout))
		if cap(buf) < payload {
			buf = make([]byte, payload)
		}
		buf = buf[:payload]
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		conn.SetReadDeadline(time.Time{})

		st.mu.Lock()
		expected := st.expected
		st.mu.Unlock()
		if seq < expected {
			// Duplicate after a reconnect race: discard, but re-ack so the
			// sender can prune its retransmit buffer.
			if !n.writeAck(conn, ack[:], expected) {
				return
			}
			continue
		}
		if seq > expected {
			return // gap: the sender will rewind via the next handshake
		}

		// The frame buffer is reused across iterations: every decode
		// below copies out of it before the next frame overwrites it.
		// Entries and refs decode into the link's slabs, and the message's
		// Release hands them back.
		rest := buf
		var err error
		switch {
		case nEntries > 0 && hdr[1]&comm.FlagRefs != 0:
			m.Refs, rest, err = comm.DecodeRefsSlab(rest, nEntries, uint32(m.Src), n.codec, &slabs.refs)
			if err != nil {
				return
			}
			m.Release = slabs.lend(nil, m.Refs)
		case nEntries > 0:
			m.Entries, rest, err = comm.DecodeEntriesSlab(rest, nEntries, n.codec, &slabs.entries)
			if err != nil {
				return
			}
			m.Release = slabs.lend(m.Entries, nil)
		}
		if nKeys > 0 {
			m.Keys, rest, err = comm.DecodeKeys(rest, nKeys, n.codec)
			if err != nil {
				return
			}
		}
		if nInts > 0 {
			m.Ints, rest, err = comm.DecodeInts(rest, nInts)
			if err != nil {
				return
			}
		}
		if len(rest) != 0 {
			// A count/size mismatch is a protocol violation (e.g. a header
			// whose payload size disagrees with its entry counts).
			return
		}
		ep.stats.CountRecv(payload)
		select {
		case ep.inbox <- m:
		case <-n.down:
			return
		}
		// Advance the sequence only after delivery: a frame that never
		// reached the inbox must be retransmitted, not acknowledged.
		st.mu.Lock()
		st.expected = seq + 1
		st.mu.Unlock()
		if !n.writeAck(conn, ack[:], seq+1) {
			return
		}
	}
}

// decodeSlabsKept is how many idle entry slabs of one size class a read
// loop keeps, and how many idle slab loans. A 4-node TCP SortRecords of
// 2^18 keys with 128-byte payloads has about 9 frames a link decoded and
// not yet released, 19 at the peak, so with 32 every slab the next sort
// asks for is back in the pool. A pool keeps only slabs it handed out,
// so a link's idle slabs are at most as many as it ever had out at once
// and at most 32 a size class — a class being a frame's entries rounded
// up to a power of two, a frame at most Config.MaxFrameBytes. After 20
// such sorts the 12 links kept 122 entry slabs, 9.2 MB, at most 1.5 MB a
// link. The ref pool keeps the default four a class: no measured
// workload sends refs over TCP.
const decodeSlabsKept = 32

// recvSlabs is what one read loop decodes entry and ref chunks into: a
// pool of each, and the Release a message hands them back through. The
// consumer calls it once it has copied the data out.
type recvSlabs[K any] struct {
	// entries clears a slab as it comes back when entries carry
	// payloads, so an idle pool pins no payload block.
	entries alloc.SlabPool[comm.Entry[K]]
	refs    alloc.SlabPool[comm.NormRef]

	mu   sync.Mutex
	idle []*slabLoan[K] // at most decodeSlabsKept
}

// slabLoan is one message's slab on its way back: its release is bound
// once, when the loan is made, and the loan is reused, so a frame
// allocates no closure.
type slabLoan[K any] struct {
	from    *recvSlabs[K]
	entries []comm.Entry[K]
	refs    []comm.NormRef
	release func()
}

func newRecvSlabs[K any](codec comm.Codec[K]) *recvSlabs[K] {
	pc, ok := codec.(comm.PayloadCarrier)
	s := &recvSlabs[K]{idle: make([]*slabLoan[K], 0, decodeSlabsKept)}
	s.entries.Keep, s.entries.Clear = decodeSlabsKept, ok && pc.CarriesPayload()
	return s
}

// lend returns the Release of a message whose data is entries or refs.
func (s *recvSlabs[K]) lend(entries []comm.Entry[K], refs []comm.NormRef) func() {
	s.mu.Lock()
	var l *slabLoan[K]
	if n := len(s.idle); n > 0 {
		l, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.mu.Unlock()
	if l == nil {
		l = &slabLoan[K]{from: s}
		l.release = l.giveBack
	}
	l.entries, l.refs = entries, refs
	return l.release
}

// giveBack returns the loan's slab to its pool and the loan to the idle
// list.
func (l *slabLoan[K]) giveBack() {
	s := l.from
	s.entries.Put(l.entries)
	s.refs.Put(l.refs)
	l.entries, l.refs = nil, nil
	s.mu.Lock()
	if len(s.idle) < decodeSlabsKept {
		s.idle = append(s.idle, l)
	}
	s.mu.Unlock()
}

// writeAck writes a cumulative acknowledgement on the receive connection.
func (n *tcpNetwork[K]) writeAck(conn net.Conn, buf []byte, next uint64) bool {
	binary.LittleEndian.PutUint64(buf, next)
	conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
	_, err := conn.Write(buf)
	conn.SetWriteDeadline(time.Time{})
	return err == nil
}

func (e *tcpEndpoint[K]) ID() int            { return e.id }
func (e *tcpEndpoint[K]) P() int             { return e.net.p }
func (e *tcpEndpoint[K]) Stats() *comm.Stats { return &e.stats }

func (e *tcpEndpoint[K]) Send(dst int, m comm.Message[K]) error {
	n := e.net
	if dst < 0 || dst >= n.p {
		return fmt.Errorf("transport: destination %d out of range", dst)
	}
	m.Src = e.id
	m.Dst = dst
	if n.closing.Load() {
		return n.closedErr()
	}
	logical := m.WireBytes(n.codec)
	if err := comm.CheckFrame(logical, n.cfg.MaxFrameBytes); err != nil {
		return err
	}
	if dst == e.id {
		// Loopback without a socket, as PGX.D keeps local writes local.
		e.stats.CountSend(logical)
		e.stats.CountRecv(logical)
		select {
		case e.inbox <- m:
		case <-n.down:
			return n.closedErr()
		}
		return nil
	}
	l := n.links[e.id][dst]

	// Acquire a window slot: the bounded per-link backpressure. Blocked
	// time is the slow-peer stall the engine surfaces in its Report.
	select {
	case l.window <- struct{}{}:
	default:
		t0 := time.Now()
		select {
		case l.window <- struct{}{}:
			e.stats.CountStall(time.Since(t0))
		case <-l.brokenC:
			e.stats.CountStall(time.Since(t0))
			return l.brokenErr()
		case <-n.down:
			e.stats.CountStall(time.Since(t0))
			return n.closedErr()
		}
	}

	f := framePool.Get().(*frame)
	if cap(f.buf) < headerBytes+logical {
		// The header plus a power of two: frames of nearly one size share
		// buffers, and a full chunk (a power of two itself) wastes nothing.
		f.buf = make([]byte, 0, headerBytes+1<<bits.Len(uint(max(logical, 1)-1)))
	}
	putHeader(f.buf[:headerBytes], &m, logical)
	f.buf = m.AppendWire(f.buf[:headerBytes], n.codec)
	// The queue has at least as much capacity as the window, so holding a
	// window token guarantees this send never blocks.
	l.queue <- f
	if err := l.brokenErrOrDown(); err != nil {
		// Fail fast: the frame cannot be delivered, the network is dead.
		return err
	}
	e.stats.CountSend(logical)
	return nil
}

// Recv blocks for the next message. After the network goes down the
// inbox still drains — the graceful Close ensures every in-flight frame
// was delivered before the down signal fires — and then reports ok=false.
// The inbox channel itself is never closed: the loopback Send path
// writes to it concurrently, and a close would race that write.
func (e *tcpEndpoint[K]) Recv() (comm.Message[K], bool) {
	select {
	case m := <-e.inbox:
		return m, true
	case <-e.net.down:
		select {
		case m := <-e.inbox:
			return m, true
		default:
			var zero comm.Message[K]
			return zero, false
		}
	}
}

// link is the send side of one (src -> dst) edge: a bounded queue feeding
// a writer goroutine that owns the connection, the retransmit buffer and
// the reconnect loop.
type link[K any] struct {
	n        *tcpNetwork[K]
	src, dst int

	queue   chan *frame   // Send -> writer
	window  chan struct{} // tokens held = frames queued or unacked
	connErr chan struct{} // cap 1: ack reader signals connection death
	ackSig  chan struct{} // cap 1: ack reader signals new acks to prune
	stopC   chan struct{} // closed at teardown
	ready   chan struct{} // closed after the first successful connect

	// ackNext is the cumulative acknowledgement horizon published by the
	// ack reader; the writer goroutine owns the retransmit buffer and is
	// the only one that prunes to it (so a frame is never recycled while
	// the writer may still be writing it).
	ackNext atomic.Uint64
	// ackTimer is the writer's ack deadline (ackDeadline), stopped while
	// it waits for nothing.
	ackTimer *time.Timer

	mu        sync.Mutex
	conn      net.Conn
	unacked   []*frame
	nextSeq   uint64
	progress  bool  // an ack arrived since the last connection drop
	cycles    int   // consecutive no-progress connection cycles
	broken    error // permanent failure, set once
	brokenC   chan struct{}
	readyOnce sync.Once
	stopOnce  sync.Once
}

func newLink[K any](n *tcpNetwork[K], src, dst int) *link[K] {
	l := &link[K]{
		n:        n,
		src:      src,
		dst:      dst,
		queue:    make(chan *frame, n.cfg.WindowFrames),
		window:   make(chan struct{}, n.cfg.WindowFrames),
		connErr:  make(chan struct{}, 1),
		ackSig:   make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		ready:    make(chan struct{}),
		brokenC:  make(chan struct{}),
		ackTimer: time.NewTimer(time.Hour),
	}
	l.ackTimer.Stop()
	return l
}

func (l *link[K]) stop() {
	l.stopOnce.Do(func() { close(l.stopC) })
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
}

func (l *link[K]) brokenErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// brokenErrOrDown is Send's post-queue check. Checking closing (set
// before the drain begins) and not just down (closed after it ends)
// matters: a Send that slips its frame in while drainLinks is taking
// its final quiescent look would otherwise report success for a frame
// the teardown is about to drop.
func (l *link[K]) brokenErrOrDown() error {
	select {
	case <-l.brokenC:
		return l.brokenErr()
	default:
	}
	if l.n.closing.Load() || l.n.isDown() {
		return l.n.closedErr()
	}
	return nil
}

// run is the link's writer goroutine: (re)establish the connection, pump
// frames, repeat until stopped or the link breaks. The writer owns the
// connection, so it closes whatever is current on every exit path — a
// connection installed after the teardown sweep would otherwise leave
// its ack reader blocked forever and hang Close on wg.Wait.
func (l *link[K]) run() {
	defer l.n.wg.Done()
	defer func() {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
	}()
	var lastErr error
	for {
		if !l.ensureConn(lastErr) {
			return
		}
		err := l.pump()
		if err == nil {
			return // clean stop
		}
		lastErr = err
		l.dropConn()
		if l.n.isDown() {
			return
		}
	}
}

// ensureConn dials and handshakes until the link has a live connection,
// with exponential backoff plus jitter between attempts. Every failed
// attempt and every connection drop without acknowledgement progress
// (whose error arrives via lastErr) consumes one unit of the
// DialAttempts budget; an acknowledged frame refills it. Exhausting the
// budget declares the link broken and fails the network.
func (l *link[K]) ensureConn(lastErr error) bool {
	l.mu.Lock()
	if l.conn != nil {
		l.mu.Unlock()
		return true
	}
	exhausted := l.cycles >= l.n.cfg.DialAttempts
	cycles := l.cycles
	l.mu.Unlock()
	if exhausted {
		// Connections kept coming up but nothing got acknowledged (e.g. a
		// peer that accepts and then stalls past every deadline).
		l.declareBroken(&LinkError{Src: l.src, Dst: l.dst, Attempts: cycles, Err: lastErr})
		return false
	}

	backoff := l.n.cfg.RetryBase
	for {
		if l.n.isDown() {
			return false
		}
		select {
		case <-l.stopC:
			return false
		default:
		}
		err := l.dialOnce()
		if err == nil {
			l.readyOnce.Do(func() { close(l.ready) })
			return true
		}
		lastErr = err
		l.mu.Lock()
		l.cycles++
		exhausted := l.cycles >= l.n.cfg.DialAttempts
		cycles := l.cycles
		l.mu.Unlock()
		if exhausted {
			l.declareBroken(&LinkError{Src: l.src, Dst: l.dst, Attempts: cycles, Err: lastErr})
			return false
		}
		sleep := Jitter(backoff, uint64(time.Now().UnixNano()))
		select {
		case <-time.After(sleep):
		case <-l.stopC:
			return false
		case <-l.n.down:
			return false
		}
		if backoff *= 2; backoff > l.n.cfg.RetryMax {
			backoff = l.n.cfg.RetryMax
		}
	}
}

// dialOnce makes one connection attempt: dial, handshake, prune the
// acknowledged prefix, retransmit the rest.
func (l *link[K]) dialOnce() error {
	cfg := l.n.cfg
	d := net.Dialer{Timeout: cfg.ConnectTimeout}
	conn, err := d.Dial("tcp", l.n.peerAddrs[l.dst])
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(cfg.ConnectTimeout))
	var hs [hsBytes]byte
	copy(hs[:4], hsMagic)
	hs[4] = hsVersion
	binary.LittleEndian.PutUint32(hs[5:], uint32(l.src))
	binary.LittleEndian.PutUint32(hs[9:], uint32(l.dst))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return fmt.Errorf("handshake write %d->%d: %w", l.src, l.dst, err)
	}
	var rep [ackBytes]byte
	if _, err := io.ReadFull(conn, rep[:]); err != nil {
		conn.Close()
		return fmt.Errorf("handshake read %d->%d: %w", l.src, l.dst, err)
	}
	conn.SetDeadline(time.Time{})
	expected := binary.LittleEndian.Uint64(rep[:])

	// A receiver expecting more than this link ever sent means the
	// sender lost its sequence state (a process restart on a link that
	// already carried traffic). Applying such a horizon would make
	// prune() discard every future frame as pre-acked while the
	// receiver drops them as duplicates: Sends succeeding, nothing
	// delivered. Fail loudly instead.
	l.mu.Lock()
	sent := l.nextSeq
	l.mu.Unlock()
	if expected > sent {
		conn.Close()
		err := fmt.Errorf("transport: peer expects seq %d on link %d->%d but only %d were ever sent: sender state lost (process restart?)",
			expected, l.src, l.dst, sent)
		l.declareBroken(&LinkError{Src: l.src, Dst: l.dst, Attempts: 1, Err: err})
		return err
	}

	// The handshake reply is a cumulative ack: everything below it was
	// delivered before the reset. Prune it, then retransmit the rest.
	l.advanceAck(expected)
	l.prune()
	l.mu.Lock()
	reconnect := l.nextSeq > 0
	resend := append([]*frame(nil), l.unacked...)
	l.conn = conn
	l.mu.Unlock()

	// Drain stale signals from the previous connection's reader.
	select {
	case <-l.connErr:
	default:
	}
	l.n.wg.Add(1)
	go l.ackReader(conn)

	for _, f := range resend {
		if err := l.writeFrame(f, false); err != nil {
			l.dropConn()
			return fmt.Errorf("retransmit %d->%d: %w", l.src, l.dst, err)
		}
	}
	if reconnect {
		if ep := l.n.eps[l.src]; ep != nil {
			ep.stats.CountReconnect()
			ep.stats.CountResent(len(resend))
		}
	}
	return nil
}

// pump moves frames from the queue onto the wire until the connection
// fails, an unacknowledged frame outlives the ack deadline, or the
// network stops.
func (l *link[K]) pump() error {
	for {
		l.prune()
		select {
		case f := <-l.queue:
			if err := l.writeFrame(f, true); err != nil {
				return err
			}
			continue
		default:
		}
		ackC := l.ackDeadline()
		select {
		case f := <-l.queue:
			l.ackTimer.Stop()
			if err := l.writeFrame(f, true); err != nil {
				return err
			}
		case <-l.ackSig:
			l.ackTimer.Stop()
		case <-l.connErr:
			l.ackTimer.Stop()
			return fmt.Errorf("transport: connection %d->%d lost", l.src, l.dst)
		case <-ackC:
			l.prune()
			if l.ackOverdue() {
				return &DeadlineError{Op: "await-ack", Src: l.src, Dst: l.dst, Timeout: l.n.cfg.AckTimeout}
			}
		case <-l.stopC:
			return nil
		case <-l.n.down:
			return nil
		}
	}
}

// ackDeadline arms the link's ack timer for the oldest unacknowledged
// frame and returns its channel — nil, which never fires, when nothing is
// outstanding. Under Go 1.23 timers (go.mod's go line) a Reset or Stop
// leaves no stale tick in the channel, so one timer serves every wait;
// a stray tick would only make pump look again, as ackOverdue reads the
// clock.
func (l *link[K]) ackDeadline() <-chan time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.unacked) == 0 {
		return nil
	}
	l.ackTimer.Reset(max(time.Until(l.unacked[0].sentAt.Add(l.n.cfg.AckTimeout)), 0))
	return l.ackTimer.C
}

func (l *link[K]) ackOverdue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.unacked) > 0 && time.Since(l.unacked[0].sentAt) >= l.n.cfg.AckTimeout
}

// writeFrame writes one frame — header and payload in one call — under
// the write deadline. first stamps a fresh sequence number and files the
// frame as unacknowledged; retransmissions keep their original sequence.
// A first write passes FpWriteFrame once the frame is in the retransmit
// buffer, so an injected error there is a reset the redial recovers from.
func (l *link[K]) writeFrame(f *frame, first bool) error {
	l.mu.Lock()
	if first {
		f.seq = l.nextSeq
		l.nextSeq++
		binary.LittleEndian.PutUint64(f.buf[seqOffset:], f.seq)
		l.unacked = append(l.unacked, f)
	}
	conn := l.conn
	l.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("transport: connection %d->%d lost", l.src, l.dst)
	}
	if first {
		if err := failpoint.HitNoPanic(FpWriteFrame); err != nil {
			conn.Close()
			return err
		}
	}
	f.sentAt = time.Now()
	conn.SetWriteDeadline(f.sentAt.Add(l.n.cfg.WriteTimeout))
	if _, err := conn.Write(f.buf); err != nil {
		return l.wrapWriteErr(err)
	}
	conn.SetWriteDeadline(time.Time{})
	return nil
}

func (l *link[K]) wrapWriteErr(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return &DeadlineError{Op: "write", Src: l.src, Dst: l.dst, Timeout: l.n.cfg.WriteTimeout, Err: err}
	}
	return err
}

// ackReader consumes cumulative acknowledgements flowing back on the
// data connection. It only publishes the ack horizon and wakes the
// writer; the writer goroutine does the actual pruning, so a frame is
// never recycled while a write may still be reading it.
func (l *link[K]) ackReader(conn net.Conn) {
	defer l.n.wg.Done()
	var buf [ackBytes]byte
	for {
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			l.mu.Lock()
			current := l.conn == conn
			l.mu.Unlock()
			if current {
				conn.Close()
				select {
				case l.connErr <- struct{}{}:
				default:
				}
			}
			return
		}
		next := binary.LittleEndian.Uint64(buf[:])
		l.advanceAck(next)
		l.mu.Lock()
		l.progress = true
		l.cycles = 0
		l.mu.Unlock()
		select {
		case l.ackSig <- struct{}{}:
		default:
		}
	}
}

// advanceAck raises the published ack horizon to next, never lowering
// it. The CAS loop matters: a stale reader from a replaced connection
// can race a newer handshake's larger horizon, and a plain
// compare-then-store could regress it.
func (l *link[K]) advanceAck(next uint64) {
	for {
		cur := l.ackNext.Load()
		if next <= cur || l.ackNext.CompareAndSwap(cur, next) {
			return
		}
	}
}

// prune (writer goroutine only) drops every frame below the published
// ack horizon from the retransmit buffer, recycling it — an acknowledged
// frame is never written again — and releasing its window token.
func (l *link[K]) prune() {
	next := l.ackNext.Load()
	l.mu.Lock()
	k := 0
	for k < len(l.unacked) && l.unacked[k].seq < next {
		framePool.Put(l.unacked[k])
		k++
	}
	if k > 0 {
		// Clear the slots behind the survivors, or they would keep frames
		// the pool has since dropped, buffers and all, alive.
		n := copy(l.unacked, l.unacked[k:])
		clear(l.unacked[n:])
		l.unacked = l.unacked[:n]
	}
	l.mu.Unlock()
	for i := 0; i < k; i++ {
		<-l.window
	}
}

// dropConn discards the current connection (after a write error, ack
// failure or injected reset), charging one no-progress cycle unless an
// acknowledgement arrived on it.
func (l *link[K]) dropConn() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	if l.progress {
		l.cycles = 0
		l.progress = false
	} else {
		l.cycles++
	}
	l.mu.Unlock()
	select {
	case <-l.connErr:
	default:
	}
}

// declareBroken marks the link permanently failed and fails the network.
func (l *link[K]) declareBroken(err *LinkError) {
	l.mu.Lock()
	if l.broken == nil {
		l.broken = err
		close(l.brokenC)
	}
	l.mu.Unlock()
	l.readyOnce.Do(func() { close(l.ready) })
	l.n.fail(err)
}
