package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"pgxsort/internal/comm"
)

// fuzzMaxFrame is the frame-size limit FuzzFrameHeader's read loop
// enforces: small, so the fuzzer crosses it from both sides.
const fuzzMaxFrame = 4096

// wireFrame is m as Send would frame it, under sequence number seq.
func wireFrame[K any](m comm.Message[K], seq uint64, c comm.Codec[K]) []byte {
	b := make([]byte, headerBytes, headerBytes+m.WireBytes(c))
	putHeader(b, &m, m.WireBytes(c))
	binary.LittleEndian.PutUint64(b[seqOffset:], seq)
	return m.AppendWire(b, c)
}

// FuzzFrameHeader feeds a read loop — the parser that faces the socket —
// arbitrary bytes over a net.Pipe, for a fixed-width, a variable-width
// and a payload-carrying codec. It must never panic or hang, never size
// an allocation from a header's claims (payload past MaxFrameBytes,
// counts the payload could not back), and always end by dropping the
// connection — having delivered, in sequence order, exactly the frames
// of the input that were well-formed up to there, and nothing else.
func FuzzFrameHeader(f *testing.F) {
	u64 := comm.Message[uint64]{Kind: comm.KData, Src: 0, SortID: 3, Flags: comm.FlagRunComplete,
		Entries: []comm.Entry[uint64]{{Key: 7, Proc: 1, Index: 2}, {Key: 3, Index: 9}}, Ints: []int64{-5}}
	meta := comm.Message[uint64]{Kind: comm.KSplitters, Keys: []uint64{1, 2, 3}}
	rec := comm.Message[uint64]{Kind: comm.KData, Entries: []comm.Entry[uint64]{{Key: 1, Payload: []byte("body")}, {Key: 2}}}
	str := comm.Message[string]{Kind: comm.KSamples, Keys: []string{"pear", ""}, Entries: []comm.Entry[string]{{Key: "fig", Index: 4}}}
	recCodec := comm.NewRecordCodec[uint64](comm.U64Codec{})
	two := append(wireFrame(u64, 0, comm.U64Codec{}), wireFrame(meta, 1, comm.U64Codec{})...)
	f.Add(two, uint8(0))
	f.Add(two[:len(two)-3], uint8(0))                    // cut mid-payload
	f.Add(append(bytes.Clone(two), two...), uint8(0))    // both frames again: duplicates
	f.Add(wireFrame(meta, 1, comm.U64Codec{}), uint8(0)) // a gap
	f.Add(wireFrame(rec, 0, recCodec), uint8(2))
	f.Add(wireFrame(rec, 0, recCodec), uint8(0)) // counts and size disagree
	f.Add(wireFrame(str, 0, comm.StringCodec{}), uint8(1))
	// Ref frames: decoded back into refs, and refused by a codec that
	// cannot frame them.
	refs := comm.Message[uint64]{Kind: comm.KData, SortID: 3, Refs: []comm.NormRef{{Norm: 7, Idx: 2}, {Norm: 9}}}
	f.Add(wireFrame(refs, 0, comm.U64Codec{}), uint8(0))
	f.Add(wireFrame(refs, 0, recCodec), uint8(2))
	f.Add(wireFrame(refs, 0, comm.U64Codec{}), uint8(1))
	for _, field := range []int{10, 14, 18, 22} { // nEntries, nKeys, nInts, payload
		for _, claim := range []uint32{math.MaxInt32, math.MaxUint32} {
			huge := wireFrame(meta, 0, comm.U64Codec{})
			binary.LittleEndian.PutUint32(huge[field:], claim)
			for codec := uint8(0); codec < 3; codec++ {
				f.Add(huge, codec)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, codec uint8) {
		switch codec % 3 {
		case 0:
			fuzzReadLoop[uint64](t, data, comm.U64Codec{})
		case 1:
			fuzzReadLoop[string](t, data, comm.StringCodec{})
		default:
			fuzzReadLoop[uint64](t, data, recCodec)
		}
	})
}

func fuzzReadLoop[K any](t *testing.T, data []byte, c comm.Codec[K]) {
	n := &tcpNetwork[K]{p: 2, codec: c, cfg: Config{MaxFrameBytes: fuzzMaxFrame}.withDefaults(), down: make(chan struct{})}
	// Room for every frame the input could hold: the loop never blocks on
	// its consumer here.
	inbox := make(chan comm.Message[K], len(data)/headerBytes+1)
	n.eps = []*tcpEndpoint[K]{nil, {net: n, id: 1, inbox: inbox}}
	client, server := net.Pipe()
	done := make(chan struct{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var acks sync.WaitGroup
	acks.Add(1)
	go func() { // the sender's ack reader
		defer acks.Done()
		io.Copy(io.Discard, client)
	}()
	go n.readLoop(server, 0, 1, &recvState{}, done)
	client.Write(data) // an error is the loop dropping the connection early
	client.Close()
	<-done
	acks.Wait()
	runtime.ReadMemStats(&after)
	close(inbox)

	// What the loop may allocate is bounded by what it was sent: one
	// frame buffer under the limit, slabs and payloads its bytes back.
	// A claim of 2^31 entries or 4 GiB of payload taken at its word
	// would dwarf this.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(data)); got > limit {
		t.Fatalf("read loop allocated %d bytes for %d bytes of input", got, len(data))
	}
	// Replay the input by the protocol's rules and hold every delivery
	// to it: duplicates skipped, then the next frame in sequence, whole
	// and within the limit, re-encoding to the very bytes it came from.
	pos, expected := 0, uint64(0)
	for m := range inbox {
		var frame []byte
		for {
			if len(data)-pos < headerBytes {
				t.Fatalf("delivered a message past the input's last whole header")
			}
			size := int(binary.LittleEndian.Uint32(data[pos+22:]))
			if size > fuzzMaxFrame || len(data)-pos-headerBytes < size {
				t.Fatalf("delivered a message from a frame claiming %d payload bytes with %d left", size, len(data)-pos-headerBytes)
			}
			frame = data[pos : pos+headerBytes+size]
			pos += len(frame)
			if seq := binary.LittleEndian.Uint64(frame[seqOffset:]); seq == expected {
				break
			} else if seq > expected {
				t.Fatalf("delivered a message across a sequence gap (%d, expected %d)", seq, expected)
			}
		}
		if m.Dst != 1 || m.WireBytes(c) > fuzzMaxFrame {
			t.Fatalf("delivered message: dst %d, %d wire bytes", m.Dst, m.WireBytes(c))
		}
		if !bytes.Equal(wireFrame(m, expected, c), frame) {
			t.Fatalf("delivered message %d does not re-encode to its frame", expected)
		}
		expected++
	}
}
