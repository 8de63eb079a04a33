// Package transport moves comm.Messages between the simulated processors.
//
// Two implementations share one contract:
//
//   - Chan: in-process channels, zero-copy. This is the analogue of
//     PGX.D's InfiniBand path, where buffers move without serialization.
//   - TCP: real sockets with framed, codec-serialized, sequence-numbered
//     messages. It is hardened for real clusters: configurable listen and
//     dial addresses (Config), connect retry with exponential backoff and
//     jitter, read/write/ack deadlines, frame-size limits, bounded
//     per-link send windows (backpressure with slow-peer stall
//     accounting), and reconnect-with-retransmit so a sort survives
//     connection resets mid-exchange.
//
// Both preserve per-(src,dst) FIFO order and count identical logical
// traffic, so experiments can switch transports without changing the
// measured communication volume (only its cost).
//
// Connection resets and wire stalls are injected through the failpoint
// registry at FpWriteFrame; tests that need a reset at an exact point
// call the TCP network's ResetLink instead.
package transport

import (
	"fmt"

	"pgxsort/internal/comm"
)

// FpWriteFrame is the failpoint site on the TCP writer's first write of
// each frame, after the frame has its sequence number and sits in the
// retransmit buffer: error mode closes the connection and fails the
// write, so the writer redials and resends; delay mode stalls the wire.
const FpWriteFrame = "transport/write-frame"

// Endpoint is one processor's attachment to the network.
type Endpoint[K any] interface {
	// ID returns this endpoint's processor id in [0, P).
	ID() int
	// P returns the number of processors on the network.
	P() int
	// Send delivers m to processor dst. It may block for backpressure.
	// The message's Src/Dst fields are stamped by the transport.
	Send(dst int, m comm.Message[K]) error
	// Recv blocks until a message arrives; ok is false once the network
	// is closed and the inbox is drained.
	Recv() (m comm.Message[K], ok bool)
	// Stats returns this endpoint's traffic counters.
	Stats() *comm.Stats
}

// Network is a closed group of P endpoints.
type Network[K any] interface {
	P() int
	Endpoint(i int) Endpoint[K]
	// Close tears the network down. Pending Recv calls unblock with
	// ok=false after the inbox drains.
	Close() error
	// Name identifies the implementation ("chan" or "tcp").
	Name() string
	// Err reports the network's recorded permanent failure (TCP's
	// broken-link *LinkError), or nil while it is healthy or merely
	// closed. The in-process transport cannot fail permanently.
	Err() error
}

// KindChan and KindTCP select a Network implementation.
const (
	KindChan = "chan"
	KindTCP  = "tcp"
)

// New builds a network of p endpoints with the default Config. codec is
// required for tcp and used only for byte accounting by chan.
func New[K any](kind string, p int, codec comm.Codec[K]) (Network[K], error) {
	return NewWithConfig[K](kind, p, codec, Config{})
}

// NewWithConfig builds a network of p endpoints. cfg shapes the TCP
// transport (addresses, timeouts, retry, window sizes) and is ignored by
// the in-process transport, which has none of those concerns.
func NewWithConfig[K any](kind string, p int, codec comm.Codec[K], cfg Config) (Network[K], error) {
	switch kind {
	case KindChan, "":
		return NewChan[K](p, codec), nil
	case KindTCP:
		return NewTCPWithConfig[K](p, codec, cfg)
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", kind)
	}
}
