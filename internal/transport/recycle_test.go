package transport

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"pgxsort/internal/comm"
)

// patternByte is byte k of the payload of entry j of message i on the
// (src -> dst) link: a frame delivered from a buffer that was recycled
// too early carries some other link's or message's pattern.
func patternByte(src, dst, i, j, k int) byte {
	return byte(src*131 + dst*71 + i*37 + j*13 + k)
}

// TestRecycledFramesSurviveReset: frame buffers return to the shared pool
// the moment their ack is pruned and are picked up by whichever link
// sends next — while connections are reset under the exchange and
// unacknowledged frames go out again from the buffers they still own.
// Every payload byte of every message must arrive, exactly once and in
// order: a buffer reused before its ack would retransmit another frame's
// bytes.
func TestRecycledFramesSurviveReset(t *testing.T) {
	const p, msgs, perMsg = 3, 150, 9
	cfg := fastCfg()
	cfg.WindowFrames = 4 // prune, recycle and reuse constantly
	codec := comm.NewRecordCodec[uint64](comm.U64Codec{})
	netw, err := NewTCPWithConfig[uint64](p, codec, cfg)
	if err != nil {
		t.Fatalf("NewTCPWithConfig: %v", err)
	}
	defer netw.Close()
	tn := netw.(*tcpNetwork[uint64])

	var wg sync.WaitGroup
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if dst == src {
				continue
			}
			wg.Add(1)
			go func(src, dst int) { // one sender per link, so per-link order is send order
				defer wg.Done()
				ep := netw.Endpoint(src)
				for i := 0; i < msgs; i++ {
					entries := make([]comm.Entry[uint64], perMsg)
					for j := range entries {
						pay := make([]byte, (i+j)%97) // zero-length ones included
						for k := range pay {
							pay[k] = patternByte(src, dst, i, j, k)
						}
						entries[j] = comm.Entry[uint64]{Key: uint64(i), Payload: pay, Proc: uint32(src), Index: uint32(j)}
					}
					if err := ep.Send(dst, comm.Message[uint64]{Kind: comm.KData, Entries: entries}); err != nil {
						t.Errorf("send %d->%d #%d: %v", src, dst, i, err)
						return
					}
					if i%17 == 5 {
						tn.ResetLink(src, dst)
					}
				}
			}(src, dst)
		}
	}
	for dst := 0; dst < p; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			ep := netw.Endpoint(dst)
			next := make([]int, p)
			for n := 0; n < (p-1)*msgs; n++ {
				m, ok := ep.Recv()
				if !ok {
					t.Errorf("node %d: network closed after %d messages", dst, n)
					return
				}
				i := next[m.Src]
				next[m.Src]++
				if len(m.Entries) != perMsg {
					t.Errorf("%d->%d #%d: %d entries, want %d", m.Src, dst, i, len(m.Entries), perMsg)
					return
				}
				for j, e := range m.Entries {
					if e.Key != uint64(i) || e.Proc != uint32(m.Src) || e.Index != uint32(j) || len(e.Payload) != (i+j)%97 {
						t.Errorf("%d->%d #%d entry %d: got key %d proc %d index %d with %d payload bytes",
							m.Src, dst, i, j, e.Key, e.Proc, e.Index, len(e.Payload))
						return
					}
					for k, b := range e.Payload {
						if b != patternByte(m.Src, dst, i, j, k) {
							t.Errorf("%d->%d #%d entry %d: payload byte %d is %#x, want %#x",
								m.Src, dst, i, j, k, b, patternByte(m.Src, dst, i, j, k))
							return
						}
					}
				}
				m.Release()
			}
		}(dst)
	}
	wg.Wait()
	reconnects := int64(0)
	for i := 0; i < p; i++ {
		reconnects += netw.Endpoint(i).Stats().Reconnects()
	}
	if reconnects == 0 {
		t.Error("no link reconnected: the resets never bit")
	}
}

// TestSteadyStateAllocatesNoFrames: once one all-to-all has filled the
// pools, a second of the same volume allocates no frame buffer on the
// send side and no frame buffer, decode slab, header, ack timer or
// Release closure on the receive side: under 1 % of the bytes it moves,
// and under one malloc in four frames, the test's own goroutines
// included — 36 objects for 144 frames, where a 2-core machine counts
// 15 at GOMAXPROCS 1, 2 and 4 and one object a frame would make 144
// more. Every link carries 24 frames a round, all held until the
// last arrives — more than a sort leaves out at once (about nine a link,
// 19 at the peak). Records add what the receiver has to own,
// their payloads, in one block a frame: the bound grants those bytes and
// one malloc a frame besides. Under the race detector, where a sync.Pool
// drops Puts at random, the rounds run and only the counts go unchecked.
func TestSteadyStateAllocatesNoFrames(t *testing.T) {
	t.Run("keys", func(t *testing.T) { checkSteadyState(t, comm.U64Codec{}, 0) })
	t.Run("records", func(t *testing.T) { checkSteadyState(t, comm.NewRecordCodec[uint64](comm.U64Codec{}), 64) })
}

func checkSteadyState(t *testing.T, codec comm.Codec[uint64], payload int) {
	const p, perLink, perFrame = 3, 24, 1024
	netw, err := NewTCP[uint64](p, codec)
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	defer netw.Close()
	tn := netw.(*tcpNetwork[uint64])
	entries := make([]comm.Entry[uint64], perFrame)
	for i := range entries {
		entries[i] = comm.Entry[uint64]{Key: uint64(i), Index: uint32(i)}
		if payload > 0 {
			entries[i].Payload = make([]byte, payload)
		}
	}
	errs := make(chan error, 2*p)
	round := func() {
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				for k := 0; k < perLink; k++ {
					for j := 0; j < p; j++ {
						if j == i {
							continue
						}
						if err := netw.Endpoint(i).Send(j, comm.Message[uint64]{Kind: comm.KData, Entries: entries}); err != nil {
							errs <- fmt.Errorf("send %d->%d: %w", i, j, err)
							return
						}
					}
				}
			}(i)
			go func(i int) {
				defer wg.Done()
				held := make([]func(), 0, (p-1)*perLink)
				for k := 0; k < (p-1)*perLink; k++ {
					m, ok := netw.Endpoint(i).Recv()
					if !ok || len(m.Entries) != perFrame || m.Entries[perFrame-1].Key != perFrame-1 || len(m.Entries[0].Payload) != payload {
						errs <- fmt.Errorf("node %d: bad message %d (ok=%v, %d entries)", i, k, ok, len(m.Entries))
						return
					}
					held = append(held, m.Release)
				}
				for _, release := range held { // the slowest consumer there is
					release()
				}
			}(i)
		}
		wg.Wait()
		// Every frame acknowledged and pruned, i.e. back in the pool.
		if tn.drainLinks(); tn.drainErr != nil {
			t.Fatal(tn.drainErr)
		}
	}
	// No collection between the rounds — the pool is the GC's to empty —
	// and one P: a sync.Pool parks one item per P where no other P finds it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	round() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	frames := uint64(p * (p - 1) * perLink)
	wire := frames * uint64(comm.EntriesWireBytes(entries, codec))
	owned := frames * perFrame * uint64(payload) // the payload blocks
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if payload > 0 {
		mallocs -= min(mallocs, frames)
	}
	if raceEnabled {
		t.Logf("second all-to-all allocated %d bytes and %d objects; not checked under the race detector", bytes, after.Mallocs-before.Mallocs)
		return
	}
	if bytes-min(bytes, owned) >= wire/100 || mallocs >= frames/4 {
		t.Errorf("second all-to-all allocated %d bytes and %d objects moving %d bytes in %d frames: want under %d bytes and %d objects besides the payloads",
			bytes, after.Mallocs-before.Mallocs, wire, frames, owned+wire/100, frames/4)
	} else {
		t.Logf("second all-to-all allocated %d bytes and %d objects moving %d bytes in %d frames", bytes, after.Mallocs-before.Mallocs, wire, frames)
	}
}
