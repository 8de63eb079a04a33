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
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/keyio"
	"pgxsort/internal/spill"
)

// backend is one key domain's sorting surface: an engine plus its
// scheduler behind the canonical byte format of internal/keyio. The
// HTTP handlers speak only bytes and strings; the generic machinery
// lives behind this interface so the handler code is written once.
type backend interface {
	keyType() dist.KeyType
	// count validates canonical bytes and returns the number of keys.
	count(raw []byte) (int, error)
	// canonJSON parses JSON key values into canonical bytes.
	canonJSON(vals []json.RawMessage) ([]byte, error)
	// generate renders a deterministic synthetic dataset canonically.
	generate(g dist.Gen, n int, prefix string) []byte
	// sort runs one dataset through the scheduler and returns the
	// canonical sorted bytes.
	sort(ctx context.Context, raw []byte) ([]byte, core.Report, error)
	// sortSingle is the degraded path: the same dataset on a lazily
	// built single-node engine that touches no mesh. The breaker routes
	// here when the distributed engine's links are presumed dead.
	sortSingle(ctx context.Context, raw []byte) ([]byte, core.Report, error)
	// retries reports the lifetime transient-failure retries performed
	// by this backend's schedulers (mesh plus fallback).
	retries() int64
	// topk answers a top-k / bottom-k query without a full merge.
	topk(raw []byte, k int, bottom bool) (*topkAnswer, error)
	// rank counts keys below and equal to target (given as a string).
	rank(raw []byte, target string) (*rankAnswer, error)
	// ingest streams one octet-stream body through the incremental
	// decoder: bodies at most threshold raw bytes accumulate resident
	// (and re-encode byte-identically, so cache hashing still works),
	// larger ones land in a spill-tier run file at spoolPath. A
	// threshold < 0 disables spooling. blockBytes sizes the spool's
	// blocks (0 = spill default); attempts bounds in-place retries of
	// transient spool-write failures.
	ingest(r io.Reader, spoolPath string, threshold int64, blockBytes, maxKeys, attempts int) (*ingestResult, *apiError)
	// sortSpooledTo runs one spooled upload through the scheduler's
	// out-of-core path and streams the canonical sorted bytes straight
	// from the final-merge cursor to w — no whole-result buffer. The
	// returned report carries the tracker-accounted TempPeakBytes.
	sortSpooledTo(ctx context.Context, path string, n int, w io.Writer) (core.Report, error)
	close() error
}

// topkAnswer is a keytype-erased core.TopKResult.
type topkAnswer struct {
	Keys    []string // selected keys, formatted (descending for top-k)
	Procs   []int    // originating processor per key
	N       int      // dataset size
	Bytes   int64    // query traffic: p*k candidates, not the dataset
	Elapsed time.Duration
}

// rankAnswer locates a key in the dataset's sort order without sorting:
// Rank keys order strictly below Target, Count equal it.
type rankAnswer struct {
	Rank  int
	Count int
	N     int
}

// typedBackend implements backend for one ordered key type K via a
// handful of per-type closures (encode/decode/parse/format/generate).
type typedBackend[K cmp.Ordered] struct {
	kt    dist.KeyType
	cfg   Config
	eng   *core.Engine[K]
	sched *core.Scheduler[K]
	procs int
	// mk rebuilds an engine of this key type from fresh options — the
	// degraded path uses it to construct the single-node fallback with
	// the same codec the mesh engine got.
	mk func(core.Options) (*core.Engine[K], error)

	// The single-node fallback engine, built on first use (most servers
	// never see a fatal mesh failure, so it costs nothing until then).
	fbMu    sync.Mutex
	fbBuilt bool
	fb      *core.Engine[K]
	fbSched *core.Scheduler[K]
	fbErr   error

	enc    func([]K) []byte
	dec    func([]byte) ([]K, error)
	parse  func(string) (K, error)
	format func(K) string
	less   func(a, b K) bool // total order (floats: IEEE-754 total order)
	gen    func(g dist.Gen, n int, prefix string) []K
	fromJS func(json.RawMessage) (K, error)
	// scan is the incremental ScanFunc for streaming ingress; codec is
	// the same record codec the engine uses, so upload spool files are
	// readable by the engine's spooled-sort readers.
	scan  keyio.ScanFunc[K]
	codec comm.Codec[K]
}

// newBackend builds the engine, scheduler and codec for one key domain.
// Every engine gets the record codec upload spool files are written with
// (typedBackend.codec); the engine unwraps the key codec for the radix
// fast path either way.
func newBackend(kt dist.KeyType, cfg Config) (backend, error) {
	switch kt {
	case dist.KeyUint64:
		b := &typedBackend[uint64]{
			kt: kt, cfg: cfg,
			mk: func(o core.Options) (*core.Engine[uint64], error) {
				return core.NewEngine[uint64](o, comm.NewRecordCodec[uint64](comm.U64Codec{}))
			},
			enc:    keyio.EncodeUint64s,
			dec:    keyio.DecodeUint64s,
			parse:  parseU64,
			format: func(k uint64) string { return strconv.FormatUint(k, 10) },
			less:   func(a, b uint64) bool { return a < b },
			gen:    func(g dist.Gen, n int, _ string) []uint64 { return g.Keys(n) },
			fromJS: jsonU64,
			scan:   keyio.ScanUint64s,
			codec:  comm.NewRecordCodec[uint64](comm.U64Codec{}),
		}
		return initBackend(b, cfg)
	case dist.KeyFloat64:
		b := &typedBackend[float64]{
			kt: kt, cfg: cfg,
			mk: func(o core.Options) (*core.Engine[float64], error) {
				return core.NewEngine[float64](o, comm.NewRecordCodec[float64](comm.F64Codec{}))
			},
			enc:    keyio.EncodeFloat64s,
			dec:    keyio.DecodeFloat64s,
			parse:  parseF64,
			format: func(k float64) string { return strconv.FormatFloat(k, 'g', -1, 64) },
			less:   keyio.F64TotalLess,
			gen:    func(g dist.Gen, n int, _ string) []float64 { return g.Floats(n) },
			fromJS: jsonF64,
			scan:   keyio.ScanFloat64s,
			codec:  comm.NewRecordCodec[float64](comm.F64Codec{}),
		}
		return initBackend(b, cfg)
	case dist.KeyString:
		b := &typedBackend[string]{
			kt: kt, cfg: cfg,
			mk: func(o core.Options) (*core.Engine[string], error) {
				return core.NewEngine[string](o, comm.NewRecordCodec[string](comm.StringCodec{}))
			},
			enc:    keyio.EncodeStrings,
			dec:    keyio.DecodeStrings,
			parse:  func(s string) (string, error) { return s, nil },
			format: func(k string) string { return k },
			less:   func(a, b string) bool { return a < b },
			gen:    func(g dist.Gen, n int, prefix string) []string { return g.Strings(n, prefix) },
			fromJS: jsonStr,
			scan:   keyio.ScanStrings,
			codec:  comm.NewRecordCodec[string](comm.StringCodec{}),
		}
		return initBackend(b, cfg)
	default:
		return nil, fmt.Errorf("serve: unknown key type %q", kt)
	}
}

// initBackend builds the mesh engine and scheduler common to every case.
func initBackend[K cmp.Ordered](b *typedBackend[K], cfg Config) (backend, error) {
	eng, err := b.mk(cfg.engineOptions())
	if err != nil {
		return nil, fmt.Errorf("serve: %s engine: %w", b.kt, err)
	}
	b.eng = eng
	b.sched = core.NewScheduler(eng, core.SortManyOpts{Retry: cfg.retryPolicy()})
	b.procs = eng.Options().Procs
	return b, nil
}

func (b *typedBackend[K]) keyType() dist.KeyType { return b.kt }

func (b *typedBackend[K]) count(raw []byte) (int, error) {
	keys, err := b.dec(raw)
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

func (b *typedBackend[K]) canonJSON(vals []json.RawMessage) ([]byte, error) {
	keys := make([]K, len(vals))
	for i, v := range vals {
		k, err := b.fromJS(v)
		if err != nil {
			return nil, fmt.Errorf("keys[%d]: %w", i, err)
		}
		keys[i] = k
	}
	return b.enc(keys), nil
}

func (b *typedBackend[K]) generate(g dist.Gen, n int, prefix string) []byte {
	return b.enc(b.gen(g, n, prefix))
}

func (b *typedBackend[K]) sort(ctx context.Context, raw []byte) ([]byte, core.Report, error) {
	return b.sortOn(ctx, b.sched, b.procs, raw)
}

// sortSingle runs the dataset on the single-node fallback engine. Every
// dataset the daemon admits already lives in this process's memory, so
// "fits on one node" is a policy question (Config.FallbackKeys), decided
// by the caller — here we just run it.
func (b *typedBackend[K]) sortSingle(ctx context.Context, raw []byte) ([]byte, core.Report, error) {
	sched, err := b.fallback()
	if err != nil {
		return nil, core.Report{}, err
	}
	return b.sortOn(ctx, sched, 1, raw)
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
		eng, err := b.mk(o)
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

// sortOn is the shared sort body: decode, split into procs blocks, run
// through the given scheduler, re-encode.
func (b *typedBackend[K]) sortOn(ctx context.Context, sched *core.Scheduler[K], procs int, raw []byte) ([]byte, core.Report, error) {
	keys, err := b.dec(raw)
	if err != nil {
		return nil, core.Report{}, err
	}
	res, err := sched.RunOne(ctx, blocks(keys, procs))
	if err != nil {
		return nil, core.Report{}, err
	}
	return b.enc(res.Keys()), res.Report.Snapshot(), nil
}

// ingest streams one canonical body. While the raw stream fits the
// threshold, decoded keys accumulate and re-encode byte-identically to
// the input (the canonical encodings are bijective), so the resident
// path feeds the same bytes to the cache hash that io.ReadAll used to.
// Past the threshold the accumulation replays into a spill run file and
// every further batch follows it — the body's resident footprint stays
// one decoder window plus one batch, however large the upload.
func (b *typedBackend[K]) ingest(r io.Reader, spoolPath string, threshold int64, blockBytes, maxKeys, attempts int) (*ingestResult, *apiError) {
	dec := keyio.NewStreamDecoder(r, b.scan, 0)
	var (
		keys []K
		w    *spill.Writer[K]
		ents []comm.Entry[K]
		n    int
	)
	fail := func(apiErr *apiError) (*ingestResult, *apiError) {
		if w != nil {
			w.Abort() // closes and removes the partial run file
		}
		return nil, apiErr
	}
	// spoolBatch appends one batch to the run file. An injected
	// spool-write failure is Transient and the batch is still resident,
	// so it retries in place instead of failing the whole upload.
	spoolBatch := func(batch []K) *apiError {
		ents = ents[:0]
		for _, k := range batch {
			ents = append(ents, comm.Entry[K]{Key: k})
		}
		for attempt := 1; ; attempt++ {
			err := failpoint.HitNoPanic(FpSpoolWrite)
			if err == nil {
				err = w.Append(ents)
			}
			if err == nil {
				return nil
			}
			if core.Classify(err) == core.FailTransient && attempt < attempts {
				continue
			}
			return uploadError(err, b.kt)
		}
	}
	batch := make([]K, 0, 4096)
	for {
		var err error
		batch, err = dec.Next(batch[:0])
		if len(batch) > 0 {
			n += len(batch)
			if n > maxKeys {
				return fail(&apiError{http.StatusRequestEntityTooLarge,
					fmt.Sprintf("%d keys exceeds the %d-key limit", n, maxKeys)})
			}
			if w == nil && threshold >= 0 && dec.BytesRead() > threshold {
				sw, werr := spill.NewWriter(spoolPath, b.codec, blockBytes)
				if werr != nil {
					return fail(uploadError(werr, b.kt))
				}
				w = sw
				if len(keys) > 0 {
					if apiErr := spoolBatch(keys); apiErr != nil {
						return fail(apiErr)
					}
					keys = nil
				}
			}
			if w != nil {
				if apiErr := spoolBatch(batch); apiErr != nil {
					return fail(apiErr)
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
	if w != nil {
		if err := w.Finish(); err != nil {
			w.Abort()
			return nil, uploadError(err, b.kt)
		}
		return &ingestResult{spool: spoolPath, n: n}, nil
	}
	return &ingestResult{resident: b.enc(keys), n: n}, nil
}

// sortSpooledTo runs one spooled upload out of core and streams the
// answer: each final-merge batch re-encodes and goes straight to w, so
// the response never exists whole in memory.
func (b *typedBackend[K]) sortSpooledTo(ctx context.Context, path string, n int, w io.Writer) (core.Report, error) {
	res, err := b.sched.RunOneSpooled(ctx, core.SpooledInput{Path: path, N: n, ReadSite: FpSpoolRead})
	if err != nil {
		return core.Report{}, err
	}
	keys := make([]K, 0, 4096)
	for {
		batch, berr := res.Next()
		if berr != nil {
			res.Close()
			return core.Report{}, berr
		}
		if len(batch) == 0 {
			break
		}
		keys = keys[:0]
		for _, e := range batch {
			keys = append(keys, e.Key)
		}
		if _, werr := w.Write(b.enc(keys)); werr != nil {
			res.Close()
			return core.Report{}, werr
		}
	}
	// Close settles TempPeakBytes and the spill counters in the report.
	if cerr := res.Close(); cerr != nil {
		return core.Report{}, cerr
	}
	return res.Report.Snapshot(), nil
}

func (b *typedBackend[K]) topk(raw []byte, k int, bottom bool) (*topkAnswer, error) {
	keys, err := b.dec(raw)
	if err != nil {
		return nil, err
	}
	parts := blocks(keys, b.procs)
	var res *core.TopKResult[K]
	if bottom {
		res, err = b.eng.BottomK(parts, k)
	} else {
		res, err = b.eng.TopK(parts, k)
	}
	if err != nil {
		return nil, err
	}
	ans := &topkAnswer{N: len(keys), Bytes: res.BytesSent, Elapsed: res.Duration}
	for _, e := range res.Entries {
		ans.Keys = append(ans.Keys, b.format(e.Key))
		ans.Procs = append(ans.Procs, int(e.Proc))
	}
	return ans, nil
}

func (b *typedBackend[K]) rank(raw []byte, target string) (*rankAnswer, error) {
	keys, err := b.dec(raw)
	if err != nil {
		return nil, err
	}
	t, err := b.parse(target)
	if err != nil {
		return nil, fmt.Errorf("key: %w", err)
	}
	ans := &rankAnswer{N: len(keys)}
	for _, k := range keys {
		switch {
		case b.less(k, t):
			ans.Rank++
		case !b.less(t, k):
			ans.Count++
		}
	}
	return ans, nil
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

// blocks splits data into p contiguous parts, sizes differing by at most
// one — the same block distribution the CLI and facade use.
func blocks[K any](data []K, p int) [][]K {
	parts := make([][]K, p)
	base, rem := len(data)/p, len(data)%p
	off := 0
	for i := range parts {
		n := base
		if i < rem {
			n++
		}
		parts[i] = data[off : off+n]
		off += n
	}
	return parts
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
