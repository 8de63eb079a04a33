package dist

import (
	"math"
	"slices"
)

// DefaultDomain is the key domain used when Gen.Domain is zero: 2^20
// distinct values, the domain of the paper's Figure 4 datasets.
const DefaultDomain uint64 = 1 << 20

// Gen describes one deterministic dataset: a distribution shape, a seed
// and a value domain. The zero Domain means DefaultDomain. Two Gens with
// equal fields always produce identical keys.
type Gen struct {
	Kind   Kind
	Seed   uint64
	Domain uint64
}

// Keys generates n keys.
func (g Gen) Keys(n int) []uint64 {
	out := make([]uint64, n)
	g.Fill(out)
	return out
}

// Fill overwrites out with len(out) keys drawn from the distribution.
// Every key lies in [0, Domain).
func (g Gen) Fill(out []uint64) {
	d := g.Domain
	if d == 0 {
		d = DefaultDomain
	}
	rng := NewRNG(g.Seed)
	switch g.Kind {
	case Normal:
		fillNormal(out, rng, d)
	case RightSkewed:
		fillRightSkewed(out, rng, d)
	case Exponential:
		fillExponential(out, rng, d)
	case Sorted:
		fillUniform(out, rng, d)
		slices.Sort(out)
	case ReverseSorted:
		fillUniform(out, rng, d)
		slices.Sort(out)
		slices.Reverse(out)
	case FewDistinct:
		fillFewDistinct(out, rng, d)
	case Constant:
		for i := range out {
			out[i] = d / 2
		}
	default: // Uniform
		fillUniform(out, rng, d)
	}
}

func fillUniform(out []uint64, rng *RNG, d uint64) {
	for i := range out {
		out[i] = rng.Uint64n(d)
	}
}

// fillNormal sums twelve uniforms (Irwin-Hall) for an approximate
// standard normal; pure arithmetic keeps it byte-stable everywhere.
func fillNormal(out []uint64, rng *RNG, d uint64) {
	mean := float64(d) / 2
	sigma := float64(d) / 8
	for i := range out {
		var s float64
		for k := 0; k < 12; k++ {
			s += rng.Float64()
		}
		v := mean + (s-6)*sigma
		// Clamp in float space: converting an out-of-range float64 to
		// uint64 is architecture-dependent in Go, which would break
		// byte-determinism across platforms.
		if v < 0 {
			v = 0
		}
		x := d - 1
		if v < float64(d) {
			x = uint64(v)
			if x >= d {
				x = d - 1
			}
		}
		out[i] = x
	}
}

// fillRightSkewed is a three-part mixture calibrated against the 2/p
// splitter duplication rule (see the package comment):
//
//   - 44% of keys on the modal value 0;
//   - 47% spread uniformly over the "shoulder" [1, a], where a scales
//     with the domain so that a = 5 at the documented Domain 64 (each
//     shoulder value then holds ~9.4% — one decile splitter apiece at
//     the paper's p=10);
//   - the remaining 9% spread uniformly over the tail (a, Domain).
func fillRightSkewed(out []uint64, rng *RNG, d uint64) {
	if d <= 1 {
		clear(out)
		return
	}
	a := 5 * d / 64
	if a < 1 {
		a = 1
	}
	if a > d-1 {
		a = d - 1
	}
	tail := d - 1 - a // number of values strictly above the shoulder
	for i := range out {
		u := rng.Float64()
		switch {
		case u < 0.44:
			out[i] = 0
		case u < 0.91 || tail == 0:
			out[i] = 1 + rng.Uint64n(a)
		default:
			out[i] = a + 1 + rng.Uint64n(tail)
		}
	}
}

// fillExponential draws floor(Exp(1) * Domain/12), clamped to the domain.
// At the documented Domain 12 this is floor(Exp(1)): P(0) = 1-1/e ≈ 63%
// of keys share the modal value. At larger domains the same exponential
// shape stretches to cover the whole domain.
func fillExponential(out []uint64, rng *RNG, d uint64) {
	scale := float64(d) / 12
	for i := range out {
		f := -math.Log(1-rng.Float64()) * scale
		// Clamp before converting (see fillNormal).
		v := d - 1
		if f < float64(d) {
			v = uint64(f)
			if v >= d {
				v = d - 1
			}
		}
		out[i] = v
	}
}

func fillFewDistinct(out []uint64, rng *RNG, d uint64) {
	k := uint64(16)
	if k > d {
		k = d
	}
	step := d / k
	for i := range out {
		out[i] = rng.Uint64n(k) * step
	}
}
