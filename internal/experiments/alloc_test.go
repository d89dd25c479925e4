package experiments

import (
	"testing"

	"colt/internal/core"
	"colt/internal/telemetry"
	"colt/internal/workload"
)

// TestSteadyStateAccessZeroAlloc pins the simulator's per-reference
// cost: after warmup, one reference (a batch of one) — workload
// generation, VPN resolve, every variant's TLB probe + possible page
// walk, and the data-cache access — must not touch the heap. Any
// regression here multiplies across the millions of references of a
// full sweep.
func TestSteadyStateAccessZeroAlloc(t *testing.T) {
	opts := QuickOptions()
	opts.Refs = 0
	stepAllocFree(t, opts)
}

// TestSteadyStateAccessZeroAllocWithTelemetry pins the same bound with
// the full observability stack live: histograms on, an event tracer
// attached, per-variant sinks wired into every TLB level, and the
// reference clock advancing. The tracer's ring and the sinks'
// fixed-size histograms are allocated up front, so emitting events and
// observing values must stay off the heap.
func TestSteadyStateAccessZeroAllocWithTelemetry(t *testing.T) {
	opts := QuickOptions()
	opts.Refs = 0
	opts.Histograms = true
	opts.Events = new(telemetry.TraceSet)
	stepAllocFree(t, opts)
}

// stepAllocFree builds a two-variant Mcf benchSim under opts, warms it
// up, and asserts steady-state steps allocate nothing.
func stepAllocFree(t *testing.T, opts Options) {
	t.Helper()
	spec, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newBenchSim(spec, SetupTHSOnNormal, opts, []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "colt-all", Config: core.CoLTAllConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: populate TLBs, walk caches, and data caches so the
	// measured steps exercise the steady-state mix of hits and misses
	// rather than cold-start fills.
	ref := 0
	for ; ref < opts.Warmup; ref++ {
		if _, err := b.stepBatch(ref, 1); err != nil {
			t.Fatal(err)
		}
	}
	forks := func() (n int) {
		for _, s := range b.sims {
			n += s.llc.Forks()
		}
		return n
	}
	before := forks()
	avg := testing.AllocsPerRun(2000, func() {
		// Keep ref advancing so the sampled oracle check (every 1024
		// refs) is included in the average at its real frequency.
		if _, err := b.stepBatch(ref, 1); err != nil {
			t.Fatal(err)
		}
		ref++
	})
	if avg != 0 {
		t.Errorf("benchSim.stepBatch allocates %.3f times per reference in steady state, want 0", avg)
	}

	// The batched hot loop carries the same guarantee: decoding a whole
	// batch, the shared front and LLC passes, and every variant's pass
	// must all run out of reused buffers. (The shared LLC's batch log
	// grows early in the run; after warmup its capacity has reached
	// steady state. A variant's forked LLC sets grow by doubling, so
	// forks cost amortized allocations well below one per reference.)
	avg = testing.AllocsPerRun(200, func() {
		n, err := b.stepBatch(ref, DefaultBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		ref += n
	})
	if avg != 0 {
		t.Errorf("benchSim.stepBatch allocates %.3f times per batch in steady state, want 0", avg)
	}
	// The measured steps must include the rare path: variants forking
	// shared LLC sets.
	if forks() == before {
		t.Error("no variant forked a shared LLC set in the measured steps")
	}
}
