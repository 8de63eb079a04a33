package serve

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
)

// FuzzSortRequestJSON feeds arbitrary bytes to the three job endpoints as
// a JSON body — the one network-facing parser the byte-level fuzzers
// (keyio, comm, transport, spill) do not reach. The handler runs on the
// fuzzing goroutine (a panic is a crash, not a closed connection), and
// whatever the body says the server must answer below 500 — 504 only to a
// body that set its own deadline_ms — and 413 only to a body past maxBody
// or naming more keys than MaxKeys. A 200 from /v1/sort must carry
// exactly slices.Sort of the keys the body named, worked out here from
// the body alone.
func FuzzSortRequestJSON(f *testing.F) {
	const maxKeys = 4096
	srv, err := New(Config{Procs: 2, Workers: 1, MaxKeys: maxKeys, KeyTypes: []dist.KeyType{dist.KeyUint64}})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(func() { srv.Close() })

	b64 := base64.StdEncoding.EncodeToString(keyio.EncodeUint64s([]uint64{9, 1 << 60, 0, 9, 3}))
	for _, body := range []string{
		`{"keys":[9,3,18446744073709551615,5,3]}`,
		`{"keys":["9"," 3 ","18446744073709551615"],"tenant":"a","no_cache":true}`,
		`{"keys_b64":"` + b64 + `"}`,
		`{"dist":{"kind":"right-skewed","n":300,"seed":7,"domain":64}}`,
		`{"dist":{"n":4097}}`,
		`{"keys":[1],"keyz":[2]}`,
		`{"keys":[1],"keys_b64":"` + b64 + `"}`,
		`{"keys":[1],"recbytes":32}`,
		`{"keys":[2,1],"key_type":"float64"}`,
		`{"keys":[2,1],"deadline_ms":1}`,
		`{"keys":[-4]}`, `{"keys":[1.5]}`, `{"keys":[{}]}`, `{"keys":[]}`, `{"keys":null}`, `{}`, `[]`, `{"keys":[1]} trailing`, ``,
		`{"keys_b64":"` + b64 + `","k":2,"bottom":true}`,
		`{"keys_b64":"` + b64 + `","key":"9"}`,
		`{"keys":[` + strings.Repeat("1,", maxKeys) + `1]}`,
	} {
		for endpoint := uint8(0); endpoint < 3; endpoint++ {
			f.Add([]byte(body), endpoint)
		}
	}
	f.Add([]byte(`{"keys":[`+strings.Repeat("1,", int(srv.maxBody())/2)+`1]}`), uint8(0))

	f.Fuzz(func(t *testing.T, body []byte, endpoint uint8) {
		path := [...]string{"/v1/sort", "/v1/topk", "/v1/rank"}[endpoint%3]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))

		// What the body names, read with no help from the package.
		var named struct {
			Keys       []json.RawMessage `json:"keys"`
			KeysB64    string            `json:"keys_b64"`
			DeadlineMS int64             `json:"deadline_ms"`
			Dist       *struct {
				Kind         string `json:"kind"`
				N            int    `json:"n"`
				Seed, Domain uint64
			} `json:"dist"`
		}
		parsed := json.NewDecoder(bytes.NewReader(body)).Decode(&named) == nil
		raw, _ := base64.StdEncoding.DecodeString(named.KeysB64)
		count := len(named.Keys) + len(raw)/8
		if named.Dist != nil {
			count += named.Dist.N
		}

		switch status := rec.Code; {
		case status == http.StatusGatewayTimeout && named.DeadlineMS > 0:
		case status >= 500:
			t.Fatalf("%s answered %d: %s", path, status, rec.Body)
		case status == http.StatusRequestEntityTooLarge && int64(len(body)) <= srv.maxBody() && count <= maxKeys:
			t.Fatalf("%s answered 413 to %d bytes naming %d keys: %s", path, len(body), count, rec.Body)
		case status == http.StatusOK && !parsed:
			t.Fatalf("%s answered 200 to a body that is not JSON: %q", path, body)
		case status == http.StatusOK && path == "/v1/sort":
			var want []uint64
			switch {
			case named.Dist != nil:
				kind, _ := dist.ParseKind(cmp.Or(named.Dist.Kind, "uniform"))
				want = dist.Gen{Kind: kind, Seed: named.Dist.Seed, Domain: named.Dist.Domain}.Keys(named.Dist.N)
			case named.KeysB64 != "":
				want, _ = keyio.DecodeUint64s(raw)
			default:
				for _, k := range named.Keys {
					text := string(k)
					if json.Unmarshal(k, &text) != nil {
						text = string(k) // a number: parsed from its own digits
					}
					v, err := strconv.ParseUint(strings.TrimSpace(text), 10, 64)
					if err != nil {
						t.Fatalf("200 to a body with key %s", k)
					}
					want = append(want, v)
				}
			}
			slices.Sort(want)
			var resp sortResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body: %v", err)
			}
			got, err := base64.StdEncoding.DecodeString(resp.KeysB64)
			if err != nil || !bytes.Equal(got, keyio.EncodeUint64s(want)) {
				t.Fatalf("sorted answer of %d keys is not slices.Sort of the %d named (%v)", resp.N, len(want), err)
			}
		}
	})
}
