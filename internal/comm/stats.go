package comm

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stats counts traffic through one endpoint. All methods are safe for
// concurrent use; the zero value is ready.
type Stats struct {
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64

	// Transport-health counters (all zero on the in-process transport):
	// time Send spent blocked on a full per-peer window, connections
	// re-established after a failure, and frames retransmitted across
	// reconnects.
	stallNanos atomic.Int64
	reconnects atomic.Int64
	resent     atomic.Int64
}

// CountSend records an outgoing message of the given size.
func (s *Stats) CountSend(bytes int) {
	if s == nil {
		return
	}
	s.bytesSent.Add(int64(bytes))
	s.msgsSent.Add(1)
}

// CountRecv records an incoming message of the given size.
func (s *Stats) CountRecv(bytes int) {
	if s == nil {
		return
	}
	s.bytesRecv.Add(int64(bytes))
	s.msgsRecv.Add(1)
}

// BytesSent reports total payload bytes sent.
func (s *Stats) BytesSent() int64 { return s.bytesSent.Load() }

// BytesRecv reports total payload bytes received.
func (s *Stats) BytesRecv() int64 { return s.bytesRecv.Load() }

// MsgsSent reports the number of messages sent.
func (s *Stats) MsgsSent() int64 { return s.msgsSent.Load() }

// MsgsRecv reports the number of messages received.
func (s *Stats) MsgsRecv() int64 { return s.msgsRecv.Load() }

// CountStall records time a sender spent blocked on backpressure.
func (s *Stats) CountStall(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.stallNanos.Add(int64(d))
}

// CountReconnect records one re-established connection.
func (s *Stats) CountReconnect() {
	if s == nil {
		return
	}
	s.reconnects.Add(1)
}

// CountResent records frames retransmitted after a reconnect.
func (s *Stats) CountResent(frames int) {
	if s == nil || frames <= 0 {
		return
	}
	s.resent.Add(int64(frames))
}

// SendStall reports the total time Send spent blocked on full per-peer
// windows (slow-peer backpressure).
func (s *Stats) SendStall() time.Duration { return time.Duration(s.stallNanos.Load()) }

// Reconnects reports how many times this endpoint's outbound links
// re-established a connection after a failure.
func (s *Stats) Reconnects() int64 { return s.reconnects.Load() }

// FramesResent reports how many frames were retransmitted across
// reconnects.
func (s *Stats) FramesResent() int64 { return s.resent.Load() }

// Add accumulates other into s (used to total per-node stats).
func (s *Stats) Add(other *Stats) {
	if other == nil {
		return
	}
	s.bytesSent.Add(other.bytesSent.Load())
	s.bytesRecv.Add(other.bytesRecv.Load())
	s.msgsSent.Add(other.msgsSent.Load())
	s.msgsRecv.Add(other.msgsRecv.Load())
	s.stallNanos.Add(other.stallNanos.Load())
	s.reconnects.Add(other.reconnects.Load())
	s.resent.Add(other.resent.Load())
}

// String summarizes the counters.
func (s *Stats) String() string {
	return fmt.Sprintf("sent %d msgs / %d B, recv %d msgs / %d B",
		s.MsgsSent(), s.BytesSent(), s.MsgsRecv(), s.BytesRecv())
}
