package experiments

import (
	"fmt"

	"colt/internal/workload"
)

// HotPath is the standing hot-loop benchmark fixture: Mcf under "THS
// on, normal compaction" with the standard four variants at
// QuickOptions scale, warmed up and ready to step. It pins the refs/sec
// trajectory tracked in BENCH_hotpath.json: BenchmarkHotPath (repo
// root) drives Steps, BenchmarkHotPathScalar drives StepsScalar, and both
// run exactly the code RunBenchmark runs — the fixture exists so the
// benchmark can meter steady-state stepping without re-paying system
// build and warmup per measurement.
type HotPath struct {
	b   *benchSim
	ref int
}

// NewHotPath builds and warms the fixture. batch sizes the reference
// batches exactly as Options.BatchSize would (0 selects the default).
func NewHotPath(batch int) (*HotPath, error) {
	opts := QuickOptions()
	opts.BatchSize = batch
	spec, err := workload.ByName("Mcf")
	if err != nil {
		return nil, err
	}
	sim, _, err := newBenchSim(spec, SetupTHSOnNormal, opts, StandardVariants())
	if err != nil {
		return nil, err
	}
	h := &HotPath{b: sim}
	if err := h.Steps(opts.Warmup); err != nil {
		return nil, fmt.Errorf("hot-path warmup: %w", err)
	}
	return h, nil
}

// Steps runs n references through the batched engine (stepBatch, the
// loop RunBenchmark drives in steady state).
func (h *HotPath) Steps(n int) error {
	for done := 0; done < n; {
		max := len(h.b.batch)
		if left := n - done; max > left {
			max = left
		}
		ran, err := h.b.stepBatch(h.ref, max)
		if err != nil {
			return err
		}
		h.ref += ran
		done += ran
	}
	return nil
}

// StepsScalar runs n references in batches of one, the shape traced
// jobs run.
func (h *HotPath) StepsScalar(n int) error {
	for i := 0; i < n; i++ {
		if _, err := h.b.stepBatch(h.ref, 1); err != nil {
			return err
		}
		h.ref++
	}
	return nil
}

// Variants reports how many TLB variants each reference is simulated
// against (refs/sec counts references, each fanned across variants).
func (h *HotPath) Variants() int { return len(h.b.sims) }

// BuildOnly runs one benchmark job's build phase and discards the
// result: system boot, churn, compaction settling, memhog, the
// workload's allocations and the contiguity scan. It is exactly the
// code newBenchSim runs, without attaching per-variant simulators;
// BenchmarkBuildSystem times it.
func BuildOnly(spec workload.Spec, setup SystemSetup, opts Options) error {
	_, _, err := newBenchSim(spec, setup, opts, nil)
	return err
}
