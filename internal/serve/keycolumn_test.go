package serve

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"testing"
	"unsafe"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
)

// TestSortResponseBytesEveryKeyType: /v1/sort answers every key type with
// the canonical bytes of its keys in the sort's order — uint64s ascending,
// float64s in the IEEE-754 total order bit for bit (NaNs of both signs and
// payloads, both zeros, both infinities), strings sharing prefixes longer
// than the norm sees in byte order — over HTTP, through the mesh engine
// and through the single-node fallback alike.
func TestSortResponseBytesEveryKeyType(t *testing.T) {
	const n = 20000
	srv, ts := testServer(t, Config{MemoryBudget: -1})
	u64 := dist.Gen{Kind: dist.RightSkewed, Seed: 17}.Keys(n)
	f64 := make([]float64, n)
	str := make([]string, n)
	specials := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8000000000123), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for i, k := range u64 {
		f64[i] = float64(k%300) - 150
		if i%30 < len(specials) {
			f64[i] = specials[i%30]
		}
		str[i] = fmt.Sprintf("shared-prefix-%d", k%977)
	}
	sortedU64 := slices.Clone(u64)
	slices.Sort(sortedU64)
	sortedF64 := slices.Clone(f64)
	slices.SortStableFunc(sortedF64, func(a, b float64) int { return cmp.Compare(keyio.F64Norm(a), keyio.F64Norm(b)) })
	sortedStr := slices.Clone(str)
	slices.Sort(sortedStr)
	for _, c := range []struct {
		kt        dist.KeyType
		raw, want []byte
	}{
		{dist.KeyUint64, keyio.EncodeUint64s(u64), keyio.EncodeUint64s(sortedU64)},
		{dist.KeyFloat64, keyio.EncodeFloat64s(f64), keyio.EncodeFloat64s(sortedF64)},
		{dist.KeyString, keyio.EncodeStrings(str), keyio.EncodeStrings(sortedStr)},
	} {
		resp, body := postBinary(t, ts.URL+"/v1/sort?no_cache=true&key_type="+string(c.kt), c.raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.kt, resp.StatusCode, body)
		}
		if !bytes.Equal(body, c.want) {
			t.Fatalf("%s: the answer over HTTP is not the sorted keys' bytes", c.kt)
		}
		b := srv.backends[c.kt]
		ds, apiErr := b.ingest(bytes.NewReader(c.raw), int64(len(c.raw)), false)
		if apiErr != nil {
			t.Fatalf("%s: ingest: %v", c.kt, apiErr.msg)
		}
		for name, sort := range map[string]func(context.Context, *dataset) ([]byte, error){
			"mesh": func(ctx context.Context, ds *dataset) ([]byte, error) {
				out, _, err := b.sort(ctx, ds)
				return out, err
			},
			"fallback": func(ctx context.Context, ds *dataset) ([]byte, error) {
				out, _, err := b.sortSingle(ctx, ds)
				return out, err
			},
		} {
			out, err := sort(context.Background(), ds)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.kt, name, err)
			}
			if !bytes.Equal(out, c.want) || cap(out) != len(c.want) {
				t.Fatalf("%s/%s: %d bytes (capacity %d), not the sorted keys' %d", c.kt, name, len(out), cap(out), len(c.want))
			}
		}
	}
}

// TestResidentJobBytesBoundsFootprint holds the governor's estimate of a
// resident job to what one 2^16-key job is measured to hold, for a key
// type sorted by ref (uint64) and one sorted by entry (string): every
// node's temporary peak (the nodes run at once, in this process) plus its
// input, key column and encoded answer. The estimate must cover that and
// be no more than twice it.
func TestResidentJobBytesBoundsFootprint(t *testing.T) {
	const n = 1 << 16
	srv, _ := testServer(t, Config{MemoryBudget: -1, KeyTypes: []dist.KeyType{dist.KeyUint64, dist.KeyString}})
	u64 := dist.Gen{Kind: dist.Uniform, Seed: 3}.Keys(n)
	str := make([]string, n)
	strBytes := 0
	for i, k := range u64 {
		str[i] = fmt.Sprintf("shared-prefix-%d", k%100003)
		strBytes += len(str[i])
	}
	t.Run("uint64", func(t *testing.T) {
		checkJobBytes(t, srv.backends[dist.KeyUint64].(*typedBackend[uint64]), u64, 0)
	})
	t.Run("string", func(t *testing.T) {
		checkJobBytes(t, srv.backends[dist.KeyString].(*typedBackend[string]), str, strBytes)
	})
}

// checkJobBytes sorts keys as a resident job of b and holds b's estimate
// to the measured footprint; keyBytes is what the keys hold beyond their
// K headers (a string's bytes).
func checkJobBytes[K cmp.Ordered](t *testing.T, b *typedBackend[K], keys []K, keyBytes int) {
	ds := b.fromKeys(keys)
	out, rep, err := b.sort(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	var k K
	header := int64(len(keys)) * int64(unsafe.Sizeof(k))
	measured := 2*header + int64(keyBytes) + int64(len(out))
	for _, nr := range rep.PerNode {
		measured += nr.TempPeakBytes
	}
	est := b.residentJobBytes(ds.n, ds.size)
	if est < measured || est > 2*measured {
		t.Fatalf("residentJobBytes(%d, %d) = %d for a job measured at %d bytes; want within [1, 2]x", ds.n, ds.size, est, measured)
	}
	t.Logf("estimate %d bytes, measured %d (%.2fx)", est, measured, float64(est)/float64(measured))
}
