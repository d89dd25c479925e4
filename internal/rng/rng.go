// Package rng provides a small, fast, deterministic random-number
// generator (splitmix64) used by the workload models and the OS
// simulator. Determinism matters here: the paper's methodology is
// reproduced by running the identical allocation and access history
// against each TLB configuration, which requires bit-identical
// randomness across runs.
//
// # Stream splitting
//
// Subcomponents must not share one generator through call order:
// inserting or reordering a consumer would silently shift every
// downstream draw. Two derivation primitives are provided:
//
//   - Stream(name) derives a child generator purely from the parent's
//     construction seed and the name. It is ORDER-INDEPENDENT: the
//     stream named "workload" is the same generator whether it is
//     derived first or last, before or after any draws on the parent,
//     and regardless of which sibling streams exist. Experiment runners
//     use this so that results are a function of (seed, benchmark,
//     setup, purpose) only — the guarantee that makes parallel and
//     serial schedules byte-identical.
//   - Fork() derives a child from the parent's CURRENT state. It is
//     order-dependent by design and suited to linear histories (e.g.
//     consecutive phases of one simulation) where insertion of a new
//     consumer should intentionally produce a fresh history.
package rng

import (
	"hash/fnv"
	"math"
)

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; prefer New.
type RNG struct {
	state uint64
	// seed is the construction seed, kept so Stream can derive children
	// independent of how many values the parent has drawn.
	seed uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed, seed: seed} }

// Seed returns the construction seed (the root of Stream derivation).
func (r *RNG) Seed() uint64 { return r.seed }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator whose stream is a deterministic
// function of the parent's current state, for giving subcomponents
// their own streams. Prefer Stream when the set of consumers may grow:
// Fork'd streams shift whenever an earlier Fork or draw is added.
func (r *RNG) Fork() *RNG { return New(r.Uint64()) }

// Stream derives an independent generator named name. The child is a
// pure function of the parent's construction seed and the name — it
// does not depend on the parent's draw position or on any sibling
// streams — so adding, removing, or reordering other consumers never
// changes it. Identical names yield identical streams; distinct names
// yield streams decorrelated by the splitmix64 finalizer.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	// Mix the name hash with the construction seed through one
	// splitmix64 step so nearby seeds and similar names both diffuse.
	z := r.seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(z ^ (z >> 31))
}

// Zipf returns a value in [0, n) following an approximate Zipf
// distribution with exponent s > 0: low indices are much more likely.
// It uses the inverse-CDF power-law approximation, which is accurate
// enough for workload skew modeling. Callers drawing repeatedly from
// one (n, s) should build the sampler once with NewZipf.
func (r *RNG) Zipf(n int, s float64) int {
	z := NewZipf(n, s)
	return z.Draw(r)
}

// Zipf is RNG.Zipf's sampler for one fixed (n, s), with the per-(n, s)
// work done once. A draw maps u = Float64() to v = y^e, where
// y = u*(x-1)+1, x = (n+1)^(1-s) and e = 1/(1-s), and returns
// int(v)-1 clamped to [0, n). Which integer v truncates to must match
// math.Pow(y, e) exactly, because the draws decide report bytes. Pow
// is slow, so a draw first computes v as Exp(e*Log(y)). The two agree
// to within a relative error bound m (see zipfMargin). If no integer
// lies within v*(1±m), both values truncate alike and the fast value
// stands. Otherwise the draw computes Pow.
type Zipf struct {
	n       int
	uniform bool // s <= 0: draws are uniform
	x, e    float64
	// lo and hi are 1-m and 1+m: they scale a fast value to the edges
	// of its guard band.
	lo, hi float64
	// exact forces Pow on every draw when the band is too wide to help.
	exact bool
}

// NewZipf builds the sampler for RNG.Zipf(n, s). It panics if n <= 0.
func NewZipf(n int, s float64) Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		return Zipf{n: n, uniform: true}
	}
	if s == 1 {
		s = 1.0000001 // the inverse CDF below is singular at s=1
	}
	// Inverse CDF of p(x) ~ x^{-s} over [1, n+1).
	z := Zipf{n: n, x: math.Pow(float64(n)+1, 1-s), e: 1 / (1 - s)}
	m := zipfMargin(z.e, n)
	z.lo, z.hi = 1-m, 1+m
	z.exact = !(m < 1e-3) // also catches a NaN margin
	return z
}

// zipfMargin bounds the relative gap between Exp(e*Log(y)) and
// math.Pow(y, e) for the y values a draw produces, with a factor-4
// safety margin. Write u = 2^-53 for the unit roundoff; draws have
// 1 <= v <= n+1, so |ln v| <= ln(n+1).
//
// Pow splits |e| into an integer part yi (at most trunc(|e|)+1) and a
// fraction f with |f| <= 1/2. It raises y to f with Exp and Log,
// multiplies in y^yi by repeated squaring, and inverts the result
// when e < 0. The j-th square carries (2^j-1) roundings and each
// multiply adds one, so the product carries yi roundings. The
// fraction term errs by about (1 + 2|f ln y|)u, where |f ln y| <=
// |ln v|, and the inversion adds one rounding. So Pow errs by at most
// about (trunc(|e|) + 3 + 2 ln(n+1))u.
//
// Exp(e*Log(y)) errs by about (1 + 2 ln(n+1))u: the exponent's
// absolute error of 2|ln v|u becomes relative error in the result. The
// two errors sum to under (trunc(|e|) + 4 + 4 ln(n+1))u, and the
// margin is 4x that. The fast value is also rejected when it is not
// finite or is outside [2^-1000, 2^52], where these bounds or the
// integer conversion would not hold.
func zipfMargin(e float64, n int) float64 {
	return (math.Trunc(math.Abs(e)) + 4*math.Log(float64(n)+1) + 4) * 0x1p-51
}

// Draw returns the next sample in [0, n), consuming exactly the draws
// RNG.Zipf(n, s) would.
func (z *Zipf) Draw(r *RNG) int {
	if z.uniform {
		return r.Intn(z.n)
	}
	return z.at(r.Float64())
}

// at maps one uniform u in [0, 1) to its sample.
func (z *Zipf) at(u float64) int {
	y := u*(z.x-1) + 1
	v := math.Exp(z.e * math.Log(y))
	if z.exact || !(v >= 0x1p-1000 && v <= 0x1p52) || int(v*z.lo) != int(v*z.hi) {
		v = math.Pow(y, z.e)
	}
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}
