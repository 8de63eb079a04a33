// Package dist generates the synthetic key datasets of the paper's
// evaluation (§V, Figure 4) and the analytics used to describe them.
//
// The four figure-4 distributions — uniform, normal, right-skewed and
// exponential — are exposed through Kinds; four extra adversarial kinds
// (sorted, reverse-sorted, few-distinct, constant) exercise the local
// sorting primitives and the load balance on duplicates.
//
// The distribution shapes are load-bearing, not cosmetic. A splitter
// repeats once a single key value's share of the data exceeds 2/p; a cut
// on keys alone (Figure 3b) then sends the value's whole run to one
// destination, while the paper's investigator (Figure 3c) — here,
// splitters at exact ranks — divides it. The skewed generators are
// therefore calibrated at the domains the harness uses:
//
//   - RightSkewed at Domain 64 puts ~44% of all keys on the modal value 0
//     (it spans four of ten decile splitters, as in Table II), a ~47%
//     shoulder over the next five values (~9.4% each, one decile bucket
//     apiece) and a ~9% tail over the rest of the domain. Every p=10
//     bucket then lands on the ideal 10% share when the investigator is
//     on, and ~44% piles onto one processor when it is off.
//   - Exponential at Domain 12 is floor(Exp(1)) clamped to the domain:
//     P(0) = 1-1/e ≈ 63% of keys share the modal value. At other domains
//     the same shape is scaled so the decay spans the whole domain.
//
// All generators draw from the repo-owned splitmix64 RNG so datasets are
// byte-stable across Go versions and platforms.
package dist
