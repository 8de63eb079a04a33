package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Float key files must round-trip bit-exactly, including the values plain
// `<` cannot handle: NaN, -0.0 and the infinities.
func TestFloatFileRoundTripSpecials(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	in := []float64{
		math.NaN(), math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 2.25, math.Inf(1),
	}
	if err := writeFloats(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFloats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d floats, wrote %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Fatalf("float %d: bits %x != %x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
}

func TestStringFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.bin")
	in := []string{"", "a", "züricher-straße", strings.Repeat("x", 3000), "\x00\xff\x00"}
	if err := writeStrings(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readStrings(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d strings, wrote %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("string %d: %q != %q", i, out[i], in[i])
		}
	}
}

func TestReadStringsRejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	// Length prefix says 10 bytes, only 3 present.
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte{10, 0, 0, 0, 'a', 'b', 'c'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readStrings(bad); err == nil {
		t.Fatal("truncated string file accepted")
	}
	// A dangling 2-byte prefix is also malformed.
	short := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(short, []byte{1, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readStrings(short); err == nil {
		t.Fatal("dangling length prefix accepted")
	}
}

// End-to-end float flow at the CLI level: a file salted with NaN, -0.0 and
// the infinities sorts into IEEE total order and verifies.
func TestFloatSortVerifyCLI(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.bin")
	sorted := filepath.Join(dir, "f-sorted.bin")

	captureStdout(t, func() error {
		return cmdGenerate([]string{"-keytype", "float64", "-kind", "normal", "-n", "5000", "-seed", "7", "-out", raw})
	})
	// Salt the generated file with the special values.
	keys, err := readFloats(raw)
	if err != nil {
		t.Fatal(err)
	}
	keys = append(keys, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0)
	if err := writeFloats(raw, keys); err != nil {
		t.Fatal(err)
	}

	captureStdout(t, func() error {
		return cmdSort([]string{"-keytype", "float64", "-in", raw, "-out", sorted, "-procs", "4", "-workers", "2"})
	})
	captureStdout(t, func() error {
		return cmdVerify([]string{"-keytype", "float64", "-in", sorted})
	})

	out, err := readFloats(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(keys) {
		t.Fatalf("sort changed key count: %d -> %d", len(keys), len(out))
	}
	// Total order: -Inf first, +Inf then NaN last; -0.0 strictly before 0.
	if !math.IsInf(out[0], -1) {
		t.Errorf("first key %v, want -Inf", out[0])
	}
	last := out[len(out)-1]
	if !math.IsNaN(last) {
		t.Errorf("last key %v, want NaN (total order places NaN above +Inf)", last)
	}
	negZeroAt, zeroAt := -1, -1
	for i, k := range out {
		if k == 0 {
			if math.Signbit(k) && negZeroAt < 0 {
				negZeroAt = i
			}
			if !math.Signbit(k) {
				zeroAt = i
			}
		}
	}
	if negZeroAt < 0 || zeroAt < 0 || negZeroAt > zeroAt {
		t.Errorf("-0.0 at %d, 0 at %d: total order violated", negZeroAt, zeroAt)
	}
	desc := captureStdout(t, func() error {
		return cmdDescribe([]string{"-keytype", "float64", "-in", sorted})
	})
	if !strings.Contains(desc, "NaN 1") {
		t.Errorf("describe did not count the NaN:\n%s", desc)
	}
}

// End-to-end string flow, with a shared prefix long enough to collapse the
// radix norms and a payload attached to every key (-recbytes).
func TestStringSortWithPayloadsCLI(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "s.bin")
	sorted := filepath.Join(dir, "s-sorted.bin")

	captureStdout(t, func() error {
		return cmdGenerate([]string{"-keytype", "string", "-kind", "right-skewed", "-n", "20000",
			"-seed", "3", "-domain", "5000", "-prefix", "shared-long-prefix/", "-out", raw})
	})
	sortOut := captureStdout(t, func() error {
		return cmdSort([]string{"-keytype", "string", "-recbytes", "32", "-in", raw, "-out", sorted,
			"-procs", "4", "-workers", "2"})
	})
	if !strings.Contains(sortOut, "local-sort") {
		t.Errorf("sort report missing:\n%s", sortOut)
	}
	captureStdout(t, func() error {
		return cmdVerify([]string{"-keytype", "string", "-in", sorted})
	})

	in, err := readStrings(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readStrings(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != len(out) {
		t.Fatalf("sort changed key count: %d -> %d", len(in), len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("not sorted at %d: %q < %q", i, out[i], out[i-1])
		}
	}
}

func TestGenerateRejectsPrefixForNonStrings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.bin")
	if err := cmdGenerate([]string{"-prefix", "p", "-out", path}); err == nil {
		t.Fatal("uint64 generate accepted -prefix")
	}
	if err := cmdGenerate([]string{"-keytype", "no-such-type", "-out", path}); err == nil {
		t.Fatal("generate accepted an unknown key type")
	}
	if err := cmdSort([]string{"-in", path, "-out", path, "-recbytes", "-1"}); err == nil {
		t.Fatal("sort accepted a negative -recbytes")
	}
}
