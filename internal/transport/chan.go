package transport

import (
	"errors"
	"sync"

	"pgxsort/internal/comm"
)

// inboxDepth bounds each endpoint's queued messages. A full inbox blocks
// the sender, which is the same backpressure the TCP transport gets from
// socket buffers; the engine's concurrent send/receive design (paper
// §IV-C) keeps this from deadlocking.
const inboxDepth = 1024

// chanNetwork is the in-process, zero-copy transport.
type chanNetwork[K any] struct {
	p       int
	codec   comm.Codec[K]
	eps     []*chanEndpoint[K]
	done    chan struct{}
	closeMu sync.Once
}

type chanEndpoint[K any] struct {
	net   *chanNetwork[K]
	id    int
	inbox chan comm.Message[K]
	stats comm.Stats
}

// NewChan builds an in-process network of p endpoints. codec is used only
// for traffic accounting: nothing is serialized, but both transports must
// report identical byte counts for identical workloads (Figure 9).
func NewChan[K any](p int, codec comm.Codec[K]) Network[K] {
	n := &chanNetwork[K]{p: p, codec: codec, done: make(chan struct{})}
	n.eps = make([]*chanEndpoint[K], p)
	for i := range n.eps {
		n.eps[i] = &chanEndpoint[K]{
			net:   n,
			id:    i,
			inbox: make(chan comm.Message[K], inboxDepth),
		}
	}
	return n
}

func (n *chanNetwork[K]) P() int                     { return n.p }
func (n *chanNetwork[K]) Endpoint(i int) Endpoint[K] { return n.eps[i] }
func (n *chanNetwork[K]) Name() string               { return KindChan }
func (n *chanNetwork[K]) Err() error                 { return nil }

func (n *chanNetwork[K]) Close() error {
	n.closeMu.Do(func() { close(n.done) })
	return nil
}

func (e *chanEndpoint[K]) ID() int            { return e.id }
func (e *chanEndpoint[K]) P() int             { return e.net.p }
func (e *chanEndpoint[K]) Stats() *comm.Stats { return &e.stats }

// ErrClosed reports a send or receive on a network that has been closed.
var ErrClosed = errors.New("transport: network closed")

func (e *chanEndpoint[K]) Send(dst int, m comm.Message[K]) error {
	if dst < 0 || dst >= e.net.p {
		return errors.New("transport: destination out of range")
	}
	m.Src = e.id
	m.Dst = dst
	bytes := m.WireBytes(e.net.codec)
	target := e.net.eps[dst]
	select {
	case target.inbox <- m:
		e.stats.CountSend(bytes)
		target.stats.CountRecv(bytes)
		return nil
	case <-e.net.done:
		return ErrClosed
	}
}

func (e *chanEndpoint[K]) Recv() (comm.Message[K], bool) {
	select {
	case m := <-e.inbox:
		return m, true
	case <-e.net.done:
		// Drain anything that was already queued before shutdown.
		select {
		case m := <-e.inbox:
			return m, true
		default:
			var zero comm.Message[K]
			return zero, false
		}
	}
}
