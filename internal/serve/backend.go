package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/lsort"
)

// dataset is one job's input, decoded exactly once: whatever shape the
// request brought it in — octet-stream body, keys_b64, JSON keys, a dist
// spec — the backend that owns its key type parsed it into typed keys (or,
// past the spool threshold, into an engine spool) and every later stage
// consumes those keys directly. It is opaque to the handlers: only the
// backend that built it looks inside keys or spool.
type dataset struct {
	n    int
	size int      // canonical byte length: the sorted answer's too
	hash cacheKey // content address, equal to hashJob(kt, canonical bytes); unset when spooled
	// spool is the *core.Spool[K] of an upload that crossed the spool
	// threshold; the handler owns (and closes) it. keys is nil then.
	spool io.Closer
	keys  any // []K
}

// backend is one key domain's sorting surface: an engine plus its
// scheduler, and the one place the canonical byte format of
// internal/keyio meets typed keys. It turns every request shape into a
// dataset on the way in and renders sorted entries canonically on the way
// out; between the two the handlers pass the dataset along unopened, so
// the handler code is written once for all key types.
type backend interface {
	keyType() dist.KeyType
	// fromJSON parses JSON key values into a dataset.
	fromJSON(vals []json.RawMessage) (*dataset, error)
	// generate synthesizes a deterministic dataset.
	generate(g dist.Gen, n int, prefix string) *dataset
	// ingest streams canonical bytes through the incremental decoder,
	// hashing them as they arrive. length is the announced byte count
	// (<= 0 when unknown) and only sizes the first allocation. With
	// spool, a stream that outgrows Config.SpoolThreshold lands in an
	// engine spool instead of in memory; without it is resident whatever
	// its size.
	ingest(r io.Reader, length int64, spool bool) (*dataset, *apiError)
	// sort runs one resident dataset through the scheduler and returns
	// the canonical sorted bytes.
	sort(ctx context.Context, ds *dataset) ([]byte, core.Report, error)
	// residentJobBytes is what the governor reserves for a dataset of n
	// keys and size canonical bytes that runs fully in memory.
	residentJobBytes(n, size int) int64
	// sortSingle is the degraded path: the same dataset on a lazily
	// built single-node engine that touches no mesh. The breaker routes
	// here when the distributed engine's links are presumed dead.
	sortSingle(ctx context.Context, ds *dataset) ([]byte, core.Report, error)
	// sortSpooledTo runs one spooled dataset through the scheduler's
	// out-of-core path and streams the canonical sorted bytes straight
	// from the final-merge cursor to w — no whole-result buffer. The
	// returned report carries the tracker-accounted TempPeakBytes.
	sortSpooledTo(ctx context.Context, ds *dataset, w io.Writer) (core.Report, error)
	// topk answers a top-k / bottom-k query without a full merge: the
	// selected keys, formatted (descending for top-k), each with its
	// originating processor, plus the query's traffic in bytes — p*k
	// candidates, not the dataset.
	topk(ds *dataset, k int, bottom bool) ([]topkEntry, int64, error)
	// rank locates target (given as a string) in the dataset's sort
	// order without sorting: how many keys order strictly below it and
	// how many equal it.
	rank(ds *dataset, target string) (rank, count int, err error)
	// retries reports the lifetime transient-failure retries performed
	// by this backend's schedulers (mesh plus fallback).
	retries() int64
	close() error
}

// typedBackend implements backend for one ordered key type K via a
// handful of per-type closures (scan/append/parse/format/generate).
type typedBackend[K cmp.Ordered] struct {
	kt    dist.KeyType
	cfg   Config
	eng   *core.Engine[K]
	sched *core.Scheduler[K]
	procs int

	// The single-node fallback engine, built on first use (most servers
	// never see a fatal mesh failure, so it costs nothing until then).
	fbMu    sync.Mutex
	fbBuilt bool
	fb      *core.Engine[K]
	fbSched *core.Scheduler[K]
	fbErr   error

	parse  func(string) (K, error)
	format func(K) string
	less   func(a, b K) bool // total order (floats: IEEE-754 total order)
	gen    func(g dist.Gen, n int, prefix string) []K
	fromJS func(json.RawMessage) (K, error)
	// scan and app are the canonical format's two directions, a key at
	// a time: the incremental parser every byte source goes through and
	// the appender the egress encoder renders entries with. enc is the
	// whole-slice form, for hashing keys that arrived typed. width is the
	// fixed encoded key size, 0 for variable-width (string) keys.
	scan  keyio.ScanFunc[K]
	app   func([]byte, K) []byte
	enc   func([]K) []byte
	width int64
	// codec is the key codec both engines (mesh and fallback) are built
	// with: the service sorts bare keys, so no entry carries a payload
	// length on the wire or on disk.
	codec comm.Codec[K]
}

// newBackend builds the engine, scheduler and codec for one key domain.
func newBackend(kt dist.KeyType, cfg Config) (backend, error) {
	switch kt {
	case dist.KeyUint64:
		b := &typedBackend[uint64]{
			kt: kt, cfg: cfg,
			parse:  parseU64,
			format: func(k uint64) string { return strconv.FormatUint(k, 10) },
			less:   func(a, b uint64) bool { return a < b },
			gen:    func(g dist.Gen, n int, _ string) []uint64 { return g.Keys(n) },
			fromJS: jsonU64,
			scan:   keyio.ScanUint64s,
			app:    keyio.AppendUint64,
			enc:    keyio.EncodeUint64s,
			width:  8,
			codec:  comm.U64Codec{},
		}
		return initBackend(b, cfg)
	case dist.KeyFloat64:
		b := &typedBackend[float64]{
			kt: kt, cfg: cfg,
			parse:  parseF64,
			format: func(k float64) string { return strconv.FormatFloat(k, 'g', -1, 64) },
			less:   keyio.F64TotalLess,
			gen:    func(g dist.Gen, n int, _ string) []float64 { return g.Floats(n) },
			fromJS: jsonF64,
			scan:   keyio.ScanFloat64s,
			app:    keyio.AppendFloat64,
			enc:    keyio.EncodeFloat64s,
			width:  8,
			codec:  comm.F64Codec{},
		}
		return initBackend(b, cfg)
	case dist.KeyString:
		b := &typedBackend[string]{
			kt: kt, cfg: cfg,
			parse:  func(s string) (string, error) { return s, nil },
			format: func(k string) string { return k },
			less:   func(a, b string) bool { return a < b },
			gen:    func(g dist.Gen, n int, prefix string) []string { return g.Strings(n, prefix) },
			fromJS: jsonStr,
			scan:   keyio.ScanStrings,
			app:    keyio.AppendString,
			enc:    keyio.EncodeStrings,
			codec:  comm.StringCodec{},
		}
		return initBackend(b, cfg)
	default:
		return nil, fmt.Errorf("serve: unknown key type %q", kt)
	}
}

// initBackend builds the mesh engine and scheduler common to every case.
func initBackend[K cmp.Ordered](b *typedBackend[K], cfg Config) (backend, error) {
	eng, err := core.NewEngine[K](cfg.engineOptions(), b.codec)
	if err != nil {
		return nil, fmt.Errorf("serve: %s engine: %w", b.kt, err)
	}
	b.eng = eng
	b.sched = core.NewScheduler(eng, core.SortManyOpts{Retry: cfg.retryPolicy()})
	b.procs = eng.Options().Procs
	return b, nil
}

func (b *typedBackend[K]) keyType() dist.KeyType { return b.kt }

// fromKeys wraps keys that arrived typed. Their canonical bytes exist
// only long enough to be hashed, so the dataset shares its cache entry
// with the same keys sent as bytes.
func (b *typedBackend[K]) fromKeys(keys []K) *dataset {
	raw := b.enc(keys)
	return &dataset{keys: keys, n: len(keys), size: len(raw), hash: hashJob(b.kt, raw)}
}

func (b *typedBackend[K]) fromJSON(vals []json.RawMessage) (*dataset, error) {
	keys := make([]K, len(vals))
	for i, v := range vals {
		k, err := b.fromJS(v)
		if err != nil {
			return nil, fmt.Errorf("keys[%d]: %w", i, err)
		}
		keys[i] = k
	}
	return b.fromKeys(keys), nil
}

func (b *typedBackend[K]) generate(g dist.Gen, n int, prefix string) *dataset {
	return b.fromKeys(b.gen(g, n, prefix))
}

func (b *typedBackend[K]) sort(ctx context.Context, ds *dataset) ([]byte, core.Report, error) {
	return b.sortOn(ctx, b.sched, b.procs, ds)
}

// sortSingle runs the dataset on the single-node fallback engine. Every
// dataset the daemon admits already lives in this process's memory, so
// "fits on one node" is a policy question (Config.FallbackKeys), decided
// by the caller — here we just run it.
func (b *typedBackend[K]) sortSingle(ctx context.Context, ds *dataset) ([]byte, core.Report, error) {
	sched, err := b.fallback()
	if err != nil {
		return nil, core.Report{}, err
	}
	return b.sortOn(ctx, sched, 1, ds)
}

// fallback lazily builds the degraded single-node engine: one proc, the
// in-process transport, no fault plan — nothing that can touch the
// (presumed dead) mesh. The mesh engine's whole worker budget moves onto
// the one node so local sort and merge keep their parallelism.
func (b *typedBackend[K]) fallback() (*core.Scheduler[K], error) {
	b.fbMu.Lock()
	defer b.fbMu.Unlock()
	if !b.fbBuilt {
		b.fbBuilt = true
		o := core.Options{
			Procs:       1,
			BufferBytes: b.cfg.BufferBytes,
			MaxInflight: b.cfg.MaxInflight,
		}
		if b.cfg.Workers > 0 {
			o.WorkersPerProc = b.cfg.Workers * b.procs
		}
		eng, err := core.NewEngine[K](o, b.codec)
		if err != nil {
			b.fbErr = fmt.Errorf("serve: %s fallback engine: %w", b.kt, err)
		} else {
			b.fb = eng
			b.fbSched = core.NewScheduler(eng, core.SortManyOpts{Retry: b.cfg.retryPolicy()})
		}
	}
	return b.fbSched, b.fbErr
}

func (b *typedBackend[K]) retries() int64 {
	n := b.sched.Retries()
	b.fbMu.Lock()
	if b.fbSched != nil {
		n += b.fbSched.Retries()
	}
	b.fbMu.Unlock()
	return n
}

// sortOn is the shared sort body: block-distribute the dataset's keys
// over procs, run them through the given scheduler, and append the sorted
// key columns into one buffer of exactly the input's size.
func (b *typedBackend[K]) sortOn(ctx context.Context, sched *core.Scheduler[K], procs int, ds *dataset) ([]byte, core.Report, error) {
	parts, rep, err := sched.RunOne(ctx, core.Blocks(ds.keys.([]K), procs))
	if err != nil {
		return nil, core.Report{}, err
	}
	out := make([]byte, 0, ds.size)
	for _, keys := range parts {
		for _, k := range keys {
			out = b.app(out, k)
		}
	}
	return out, rep, nil
}

// encodeWindow is how many entries the spooled egress renders per write:
// 64KB of fixed-width keys, enough to amortize a socket write, small
// enough that the encoder's scratch is noise next to any dataset.
const encodeWindow = 8192

// encode drains a spooled job's final-merge cursor of sorted entries and
// writes their keys to w in the canonical format, a window at a time
// through one reused scratch buffer.
func (b *typedBackend[K]) encode(cur lsort.Cursor[comm.Entry[K]], w io.Writer) error {
	buf := make([]byte, 0, encodeWindow*8) // exact for fixed-width keys; string windows grow it
	for {
		batch, err := cur.Next()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			return nil
		}
		for len(batch) > 0 {
			window := batch[:min(len(batch), encodeWindow)]
			batch = batch[len(window):]
			buf = buf[:0]
			for _, e := range window {
				buf = b.app(buf, e.Key)
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
}

// ingest streams one canonical byte source into a dataset, feeding the
// job's content hash from the bytes as they stream past. The canonical
// encodings are bijective — a body the decoder accepts is byte for byte
// what re-encoding its keys would give — so the hash of the wire bytes is
// the hash of the dataset, and no canonical copy is ever built just to be
// hashed. While the raw stream fits the spool threshold, decoded keys
// accumulate. Past it the accumulation replays into an engine spool and
// every further batch follows it — the body's resident footprint stays
// one decoder window plus one batch, however large the upload — and the
// hash stops there: spooled jobs bypass the result cache, so they never
// pay for one.
func (b *typedBackend[K]) ingest(r io.Reader, length int64, spool bool) (*dataset, *apiError) {
	threshold := b.cfg.SpoolThreshold
	if !spool {
		threshold = -1
	}
	h := newJobHash(b.kt)
	tap := struct{ io.Writer }{h} // repointed at io.Discard to stop hashing mid-stream
	dec := keyio.NewStreamDecoder(io.TeeReader(r, &tap), b.scan, 0)
	var (
		keys []K
		sp   *core.Spool[K]
		n    int
	)
	if b.width > 0 && length > 0 {
		// One allocation for a resident body of announced size. The
		// announcement is a client's word, so it is capped by what the
		// server would hold resident anyway.
		room := min(length, int64(b.cfg.MaxKeys)*b.width)
		if threshold >= 0 {
			room = min(room, threshold)
		}
		keys = make([]K, 0, room/b.width)
	}
	fail := func(apiErr *apiError) (*dataset, *apiError) {
		if sp != nil {
			sp.Close() // its file goes back to the engine's pool
		}
		return nil, apiErr
	}
	batch := make([]K, 0, 4096)
	for {
		var err error
		batch, err = dec.Next(batch[:0])
		if len(batch) > 0 {
			n += len(batch)
			if n > b.cfg.MaxKeys {
				return fail(&apiError{http.StatusRequestEntityTooLarge,
					fmt.Sprintf("%d keys exceeds the %d-key limit", n, b.cfg.MaxKeys)})
			}
			if sp == nil && threshold >= 0 && dec.BytesRead() > threshold {
				var serr error
				if sp, serr = b.eng.NewSpool(); serr != nil {
					return fail(spoolError(serr))
				}
				tap.Writer = io.Discard
				if serr := sp.Append(keys); serr != nil {
					return fail(spoolError(serr))
				}
				keys = nil
			}
			if sp != nil {
				if serr := sp.Append(batch); serr != nil {
					return fail(spoolError(serr))
				}
			} else {
				keys = append(keys, batch...)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fail(uploadError(err, b.kt))
		}
	}
	if sp != nil {
		if err := sp.Finish(); err != nil {
			return fail(spoolError(err))
		}
		return &dataset{spool: sp, n: n}, nil
	}
	ds := &dataset{keys: keys, n: n, size: int(dec.BytesRead())}
	h.Sum(ds.hash[:0])
	return ds, nil
}

// sortSpooledTo runs one spooled upload out of core and streams the
// answer: the final merge's batches go through the egress encoder
// straight to w, so the response never exists whole in memory.
func (b *typedBackend[K]) sortSpooledTo(ctx context.Context, ds *dataset, w io.Writer) (core.Report, error) {
	res, err := b.sched.RunOneSpooled(ctx, ds.spool.(*core.Spool[K]))
	if err != nil {
		return core.Report{}, err
	}
	if err := b.encode(res, w); err != nil {
		res.Close()
		return core.Report{}, err
	}
	// Close settles TempPeakBytes and the spill counters in the report.
	if cerr := res.Close(); cerr != nil {
		return core.Report{}, cerr
	}
	return res.Report.Snapshot(), nil
}

func (b *typedBackend[K]) topk(ds *dataset, k int, bottom bool) ([]topkEntry, int64, error) {
	sel := b.eng.TopK
	if bottom {
		sel = b.eng.BottomK
	}
	res, err := sel(core.Blocks(ds.keys.([]K), b.procs), k)
	if err != nil {
		return nil, 0, err
	}
	entries := make([]topkEntry, len(res.Entries))
	for i, e := range res.Entries {
		entries[i] = topkEntry{Key: b.format(e.Key), Proc: int(e.Proc)}
	}
	return entries, res.BytesSent, nil
}

func (b *typedBackend[K]) rank(ds *dataset, target string) (rank, count int, err error) {
	t, err := b.parse(target)
	if err != nil {
		return 0, 0, badRequest("key: %v", err)
	}
	for _, k := range ds.keys.([]K) {
		switch {
		case b.less(k, t):
			rank++
		case !b.less(t, k):
			count++
		}
	}
	return rank, count, nil
}

func (b *typedBackend[K]) close() error {
	err := b.eng.Close()
	b.fbMu.Lock()
	defer b.fbMu.Unlock()
	if b.fb != nil {
		if ferr := b.fb.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// parseU64 accepts decimal uint64 text (the JSON-safe string form).
func parseU64(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSpace(s), 10, 64)
}

// parseF64 accepts decimal float text plus NaN / ±Inf spellings.
func parseF64(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// jsonU64 accepts a JSON number or a decimal string. Strings exist
// because JSON numbers lose precision above 2^53 in most clients;
// numbers are still parsed from the raw text, so integral values beyond
// 2^53 survive when the client emits them exactly.
func jsonU64(v json.RawMessage) (uint64, error) {
	s := strings.TrimSpace(string(v))
	if strings.HasPrefix(s, `"`) {
		var str string
		if err := json.Unmarshal(v, &str); err != nil {
			return 0, err
		}
		return parseU64(str)
	}
	return parseU64(s)
}

// jsonF64 accepts a JSON number or a string ("NaN", "+Inf", "-Inf",
// or any decimal float — strings are the only way to send non-finite
// values in JSON).
func jsonF64(v json.RawMessage) (float64, error) {
	s := strings.TrimSpace(string(v))
	if strings.HasPrefix(s, `"`) {
		var str string
		if err := json.Unmarshal(v, &str); err != nil {
			return 0, err
		}
		return parseF64(str)
	}
	return parseF64(s)
}

// jsonStr accepts a JSON string.
func jsonStr(v json.RawMessage) (string, error) {
	var s string
	if err := json.Unmarshal(v, &s); err != nil {
		return "", err
	}
	return s, nil
}
