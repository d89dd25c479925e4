package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0},       // too few samples for any percentile
		{20, 50},     // p50 leaves 10 beyond
		{40, 75},     // p75 leaves 10; p90 only 4
		{100, 90},    // p90 leaves 10; p95 only 5
		{1000, 99},   // p99 leaves 10
		{9999, 99.5}, // p99.9 leaves 9
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := tailRule(c.n); got != c.want {
			t.Errorf("tailRule(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < minBeyondTail {
			t.Errorf("tailRule(%d) = %g leaves %d beyond, want >= %d", c.n, c.want, beyond(c.n, c.want), minBeyondTail)
		}
	}
}

// Each workload's fixed tail percentile is the rule applied to the
// request count a run completes.
func TestWorkloadTailsFollowRule(t *testing.T) {
	for _, w := range workloads {
		if got := tailRule(w.expectedReqs); got != w.tailPct {
			t.Errorf("%s: tailPct %g, but tailRule(%d) = %g", w.name, w.tailPct, w.expectedReqs, got)
		}
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	lat := []float64{3, 1, 2, math.Inf(1)}
	if got := percentile(lat, 50); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	if got := percentile(lat, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %g, want +Inf (the failed request)", got)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < 2000; i++ {
			if a, b := w.request(measureSeed, i), w.request(measureSeed, i); a != b {
				t.Fatalf("%s: request %d differs between calls: %v vs %v", w.name, i, a, b)
			}
		}
		same := 0
		for i := 0; i < 50; i++ {
			if w.request(measureSeed, i) == w.request(heldOutSeed, i) {
				same++
			}
		}
		if same == 50 {
			t.Errorf("%s: seeds %d and %d give the same sequence", w.name, measureSeed, heldOutSeed)
		}
	}
}

// The cold workload never repeats a spec, so nothing is served from
// cache or coalesced; warm-mixed writes one request in a hundred
// and reads only its prewarmed universe otherwise.
func TestWorkloadShapes(t *testing.T) {
	cold, err := workloadByName("cold-fig18")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[spec]bool{}
	for i := 0; i < 5000; i++ {
		s := cold.request(measureSeed, i)
		if seen[s] {
			t.Fatalf("cold-fig18: request %d repeats %v", i, s)
		}
		seen[s] = true
	}
	w, err := workloadByName("warm-mixed")
	if err != nil {
		t.Fatal(err)
	}
	universe := map[spec]bool{}
	for _, s := range w.universe(measureSeed) {
		universe[s] = true
	}
	const n = 100000
	writes, top := 0, 0
	for i := 0; i < n; i++ {
		s := w.request(measureSeed, i)
		switch {
		case s.Experiment == "timeline":
			writes++
		case universe[s]:
			if s == w.universe(measureSeed)[0] {
				top++
			}
		default:
			t.Fatalf("request %d %v is neither a write nor in the universe", i, s)
		}
	}
	if writes != n/warmWriteEvery {
		t.Errorf("%d writes in %d requests, want exactly one in %d", writes, n, warmWriteEvery)
	}
	// Zipf(s) over the universe gives rank 1 a share of 1/Σ k^-s
	// (≈ 0.250 for s=1.1 over 64 ranks).
	h := 0.0
	for k := 1; k <= warmUniverseSize; k++ {
		h += math.Pow(float64(k), -warmZipfS)
	}
	if frac, want := float64(top)/float64(n-writes), 1/h; math.Abs(frac-want) > 0.01 {
		t.Errorf("top-rank share %.4f, want about %.4f", frac, want)
	}
}

func TestDigestCoversFixedPrefix(t *testing.T) {
	outs := []outcome{
		{idx: 1, specHash: "b", sum: "2"},
		{idx: 0, specHash: "a", sum: "1"},
		{idx: 2, specHash: "c", sum: "3"},
	}
	short := []outcome{outs[1], outs[0]}
	if digest(outs, 2, nil) != digest(short, 2, nil) {
		t.Error("digest depends on requests beyond the covered prefix or on completion order")
	}
	changed := []outcome{{idx: 0, specHash: "a", sum: "1"}, {idx: 1, specHash: "b", sum: "X"}}
	if digest(outs, 2, nil) == digest(changed, 2, nil) {
		t.Error("digest ignores a changed report hash")
	}
}
