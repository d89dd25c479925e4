package rng

import (
	"fmt"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Fatal("different seeds collided immediately")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if r.IntRange(3, 3) != 3 {
		t.Fatal("degenerate range")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverted range did not panic")
		}
	}()
	r.IntRange(5, 4)
}

func TestFloat64AndBool(t *testing.T) {
	r := New(11)
	trues := 0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if r.Bool(0.3) {
			trues++
		}
	}
	if trues < 2500 || trues > 3500 {
		t.Fatalf("Bool(0.3) fired %d/10000 times", trues)
	}
}

func TestFork(t *testing.T) {
	r := New(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams identical")
	}
}

func TestStreamOrderIndependence(t *testing.T) {
	// The same name yields the same stream regardless of the parent's
	// draw position or sibling derivations.
	a := New(42)
	wantFirst := a.Stream("workload").Uint64()

	b := New(42)
	b.Uint64() // advance the parent
	b.Fork()   // derive an unrelated child
	b.Stream("churn")
	if got := b.Stream("workload").Uint64(); got != wantFirst {
		t.Fatalf("stream depends on derivation order: %d vs %d", got, wantFirst)
	}
}

func TestStreamDistinctness(t *testing.T) {
	r := New(0xC017)
	w := r.Stream("workload").Uint64()
	c := r.Stream("churn").Uint64()
	m := r.Stream("memhog").Uint64()
	if w == c || c == m || w == m {
		t.Fatalf("streams collided: workload=%d churn=%d memhog=%d", w, c, m)
	}
	// Different seeds must decorrelate the same name.
	if New(1).Stream("workload").Uint64() == New(2).Stream("workload").Uint64() {
		t.Fatal("same name under different seeds collided")
	}
	if r.Seed() != 0xC017 {
		t.Fatalf("Seed() = %#x", r.Seed())
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	r := New(13)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		v := r.Zipf(100, 1.0)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// s=0 degenerates to uniform.
	u := r.Zipf(10, 0)
	if u < 0 || u >= 10 {
		t.Fatal("uniform fallback out of range")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0) did not panic")
		}
	}()
	r.Zipf(0, 1)
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	_ = r.Uint64()
}

// zipfReference is the two-Pow inverse-CDF formula that defined
// RNG.Zipf before the sampler: the oracle every Zipf draw must match.
func zipfReference(r *RNG, n int, s float64) int {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		return r.Intn(n)
	}
	return zipfReferenceAt(r.Float64(), n, s)
}

// zipfReferenceAt is zipfReference for a given uniform draw u (s > 0).
func zipfReferenceAt(u float64, n int, s float64) int {
	if s == 1 {
		s = 1.0000001
	}
	x := math.Pow(float64(n)+1, 1-s)
	v := math.Pow(u*(x-1)+1, 1/(1-s))
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// checkZipfExact compares the sampler's first `draws` draws (and
// RNG.Zipf's first 1000) with the reference, all fed from the same
// seed. It then compares the sampler with the reference at uniform
// values placed on either side of every integer crossing of v (see
// zipfCrossings).
func checkZipfExact(t *testing.T, n int, s float64, seed uint64, draws int) {
	t.Helper()
	z := NewZipf(n, s)
	fast, thin, ref := New(seed), New(seed), New(seed)
	for i := 0; i < draws; i++ {
		want := zipfReference(ref, n, s)
		if got := z.Draw(fast); got != want {
			t.Fatalf("Zipf(%d, %v) draw %d (seed %d) = %d, reference %d", n, s, i, seed, got, want)
		}
		if i < 1000 {
			if got := thin.Zipf(n, s); got != want {
				t.Fatalf("RNG.Zipf(%d, %v) draw %d (seed %d) = %d, reference %d", n, s, i, seed, got, want)
			}
		}
	}
	if fast.Uint64() != ref.Uint64() {
		t.Fatalf("Zipf(%d, %v) consumed a different number of draws than the reference", n, s)
	}
	if s <= 0 {
		return
	}
	for _, u := range zipfCrossings(n, s) {
		if got, want := z.at(u), zipfReferenceAt(u, n, s); got != want {
			t.Fatalf("Zipf(%d, %v) at u=%v = %d, reference %d", n, s, u, got, want)
		}
	}
}

// zipfCrossings returns uniform values u in [0, 1) whose y = u*(x-1)+1
// lies within a few ulps of y_k = k^(1-s), where v = y^e crosses the
// integer k, for every k in [1, n+1]: the draws whose truncation the
// guard band must get right.
func zipfCrossings(n int, s float64) []float64 {
	if s == 1 {
		s = 1.0000001
	}
	x := math.Pow(float64(n)+1, 1-s)
	var us []float64
	for k := 1; k <= n+1; k++ {
		yk := math.Pow(float64(k), 1-s)
		lo, hi := yk, yk
		for j := 0; j < 4; j++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			for _, y := range []float64{lo, hi} {
				u := (y - 1) / (x - 1)
				for _, uu := range []float64{math.Nextafter(u, -1), u, math.Nextafter(u, 2)} {
					if uu >= 0 && uu < 1 {
						us = append(us, uu)
					}
				}
			}
		}
	}
	return us
}

func TestZipfMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{
		{1, 1}, {2, 0.5}, {8, 1}, {25, 1}, {100, 0.99}, {500, 1}, {1000, 1.2},
		{4000, 0.6}, {20000, 0.9}, {10, 0}, {10, -1}, {50, 3}, {64, 1e-9},
	} {
		checkZipfExact(t, tc.n, tc.s, uint64(tc.n)*7+1, 200_000)
	}
}

// FuzzZipf checks the sampler against the reference formula for
// arbitrary (n, s, seed), including non-finite and negative exponents.
func FuzzZipf(f *testing.F) {
	f.Add(uint16(500), 1.0, uint64(1))
	f.Add(uint16(4000), 0.6, uint64(2))
	f.Add(uint16(1), 1.15, uint64(3))
	f.Add(uint16(60), 0.0, uint64(4))
	f.Add(uint16(7), math.Inf(1), uint64(5))
	f.Add(uint16(7), math.NaN(), uint64(6))
	f.Add(uint16(300), 1.0000000000000002, uint64(7))
	f.Fuzz(func(t *testing.T, n uint16, s float64, seed uint64) {
		checkZipfExact(t, int(n)+1, s, seed, 2000)
	})
}

// zipfSink keeps the benchmarked draws observable to the compiler.
var zipfSink int

// BenchmarkZipf compares the sampler with the reference formula at the
// hot-set shapes of Mcf (500 pages, s=1) and Tigr (4000 pages, s=0.6).
func BenchmarkZipf(b *testing.B) {
	for _, tc := range []struct {
		n int
		s float64
	}{{500, 1}, {4000, 0.6}} {
		name := fmt.Sprintf("n=%d,s=%v", tc.n, tc.s)
		b.Run("sampler/"+name, func(b *testing.B) {
			r, z := New(1), NewZipf(tc.n, tc.s)
			for i := 0; i < b.N; i++ {
				zipfSink += z.Draw(r)
			}
		})
		b.Run("reference/"+name, func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				zipfSink += zipfReference(r, tc.n, tc.s)
			}
		})
	}
}
