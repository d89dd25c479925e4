package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/contig"
	"colt/internal/core"
	"colt/internal/experiments"
	"colt/internal/metrics"
	"colt/internal/mm"
	"colt/internal/mmu"
	"colt/internal/rng"
	"colt/internal/sched"
	"colt/internal/server"
	"colt/internal/vm"
	wk "colt/internal/workload"
)

// canonical resolves a benchmark spec exactly as coltd's admission
// does, so in-process runs use the served job's options.
func canonical(s spec) (server.CanonicalJob, error) {
	return server.Canonicalize(server.Spec{Experiment: s.Experiment, Quick: s.Quick, Refs: s.Refs, Seed: s.Seed},
		experiments.Registry())
}

// experimentPhases are the engine's per-job phase spans that the
// workloads' simulating jobs run, as named in the timing sidecar (the
// contiguity experiment's settle and scan phases are not among them).
var experimentPhases = []string{"build", "warmup", "simulate"}

// experimentsLayer runs reps of the workload's simulating specs
// in-process through the registry entry's Run with a metrics collector
// and reads the per-phase wall time back from the timing sidecar. Each
// value is the median over reps, per job: phase times summed over the
// job's sub-jobs, the straggler share of the scheduler's capacity, and
// the bytes allocated.
func experimentsLayer(w workload, seed uint64, reps int) (map[string]float64, error) {
	vals := map[string][]float64{}
	for n := 0; n < reps; n++ {
		s := w.simSpec(seed, n)
		can, err := canonical(s)
		if err != nil {
			return nil, err
		}
		opts := can.Opts
		opts.Metrics = metrics.NewCollector()
		workers := sched.New(opts.Parallel).Workers()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := can.Exp.Run(opts); err != nil {
			return nil, fmt.Errorf("in-process %s: %w", s, err)
		}
		wallMs := msSince(start)
		runtime.ReadMemStats(&after)
		tj, err := opts.Metrics.TimingJSON(s.Experiment)
		if err != nil {
			return nil, err
		}
		var tr metrics.TimingReport
		if err := json.Unmarshal(tj, &tr); err != nil {
			return nil, fmt.Errorf("decoding timing sidecar: %w", err)
		}
		phase := map[string]float64{}
		for _, r := range tr.Records {
			for _, p := range r.Phases {
				phase[p.Name] += p.WallMS
			}
		}
		for _, name := range experimentPhases {
			vals["experiments."+name+"_ms"] = append(vals["experiments."+name+"_ms"], phase[name])
		}
		vals["experiments.straggler_frac"] = append(vals["experiments.straggler_frac"],
			1-tr.TotalMS/(float64(workers)*wallMs))
		vals["experiments.alloc_mb_per_job"] = append(vals["experiments.alloc_mb_per_job"],
			float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out, nil
}

// Engine constants the replay mirrors: compaction passes after the
// churn phase of a normal-compaction setup (runner.go settlePasses).
const replaySettlePasses = 20

// engineSeed mirrors the engine's per-job master seed: the spec seed
// XOR the FNV-1a hash of the benchmark and setup names.
func engineSeed(base uint64, bench, setup string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(bench))
	h.Write([]byte(setup))
	return base ^ h.Sum64()
}

// replayTotals accumulates the harness's timings and counts.
type replayTotals struct {
	builds                                int
	churn, compact, memhog, wlBuild, scan time.Duration
	next, access, walk, front, llc        time.Duration
	refs, accesses, l1Miss, l2Miss, walks uint64
	llcEvents, llcCalls                   uint64
}

// variantSim is one TLB variant in the replay: the hierarchy and its
// walker as the engine wires them, plus a walk-only twin of the walker
// that re-walks the same misses so walk time can be split from the
// hierarchy's own time.
type variantSim struct {
	hier   *core.Hierarchy
	walker *mmu.Walker
	twin   *mmu.Walker
	caches *cache.Hierarchy
	pid    int
	missed []arch.VPN
}

// Shootdown implements vm.ShootdownHandler as the engine's simulator
// does, flushing the twin walker's cache alongside the real one.
func (v *variantSim) Shootdown(pid int, vpn arch.VPN) {
	if pid != v.pid {
		return
	}
	v.hier.Invalidate(vpn)
	v.walker.Flush()
	v.twin.Flush()
}

// replay re-creates the simulator work of the workload's first
// simulating job through the same public calls the engine makes, and
// times each layer in bulk: build calls one by one, hot-loop layers
// as whole passes over each reference batch (a timer per call would
// cost about as much as a TLB hit).
func replay(w workload, seed uint64, spans *spanRecorder) (map[string]float64, error) {
	can, err := canonical(w.simSpec(seed, 0))
	if err != nil {
		return nil, err
	}
	opts := can.Opts
	benches := w.harness.benches
	if benches == nil {
		benches = wk.Names()
	}
	var t replayTotals
	for _, setup := range w.harness.setups {
		for _, bench := range benches {
			if err := replayJob(&t, opts, setup, bench, w.harness, spans); err != nil {
				return nil, fmt.Errorf("replay %s under %s: %w", bench, setup.Name, err)
			}
		}
	}
	perBuild := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(t.builds) }
	ns := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	perK := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return 1000 * float64(a) / float64(b)
	}
	return map[string]float64{
		"vm.churn_ms":               perBuild(t.churn),
		"mm.compact_ms":             perBuild(t.compact),
		"vm.memhog_ms":              perBuild(t.memhog),
		"workload.build_ms":         perBuild(t.wlBuild),
		"contig.scan_ms":            perBuild(t.scan),
		"workload.ns_per_ref":       ns(t.next, t.refs),
		"core.ns_per_access":        ns(t.access-t.walk, t.accesses),
		"mmu.ns_per_walk":           ns(t.walk, t.walks),
		"cache.front_ns_per_ref":    ns(t.front, t.refs),
		"cache.llc_ns_per_event":    ns(t.llc, t.llcCalls),
		"core.l1_miss_per_kref":     perK(t.l1Miss, t.accesses),
		"core.l2_miss_per_kref":     perK(t.l2Miss, t.accesses),
		"mmu.walks_per_kref":        perK(t.walks, t.accesses),
		"cache.llc_events_per_kref": perK(t.llcEvents, t.refs),
	}, nil
}

// replayJob builds one (setup, benchmark) system the way the engine's
// buildSystem and its job functions do, then runs the hot loop if the plan
// has one.
func replayJob(t *replayTotals, opts experiments.Options, setup experiments.SystemSetup, bench string, plan harnessPlan, spans *spanRecorder) error {
	wspec, err := wk.ByName(bench)
	if err != nil {
		return err
	}
	wspec = wspec.Scale(opts.Scale)
	if opts.ColdScale > 0 {
		wspec = wspec.ScaleCold(opts.ColdScale)
	}
	timed := func(acc *time.Duration, name string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		*acc += end.Sub(start)
		spans.add(name+" "+bench, "replay", replayTid, start, end)
		return err
	}
	t.builds++
	sys := vm.NewSystem(vm.Config{Frames: opts.Frames, THP: setup.THP, Compaction: setup.Compaction})
	master := rng.New(engineSeed(opts.Seed, bench, setup.Name))
	if opts.ChurnOps > 0 {
		if err := timed(&t.churn, "vm.churn", func() error {
			_, err := vm.BackgroundChurn(sys, opts.ChurnOps, master.Stream("churn"))
			return err
		}); err != nil {
			return err
		}
	}
	if setup.Compaction == mm.CompactionNormal {
		timed(&t.compact, "mm.compact", func() error {
			for i := 0; i < replaySettlePasses; i++ {
				sys.Compactor.Compact(-1)
			}
			return nil
		})
	}
	if err := timed(&t.memhog, "vm.memhog", func() error {
		_, err := vm.StartMemhog(sys, setup.MemhogPct, master.Stream("memhog"))
		return err
	}); err != nil {
		return err
	}
	proc, err := sys.NewProcess()
	if err != nil {
		return err
	}
	proc.EnableSwap()
	var wl *wk.Workload
	if err := timed(&t.wlBuild, "workload.build", func() error {
		wl, err = wk.Build(wspec, proc, master.Stream("workload"))
		return err
	}); err != nil {
		return err
	}
	timed(&t.scan, "contig.scan", func() error { contig.Scan(proc.Table); return nil })
	if !plan.hotLoop {
		return nil
	}
	start := time.Now()
	err = hotLoop(t, sys, proc, wl, opts.Warmup+opts.Refs)
	spans.add("hot loop "+bench, "replay", replayTid, start, time.Now())
	return err
}

// hotLoop streams refs references through every standard variant in
// reference batches, the engine's variant-major order: per batch the
// workload decodes, each variant's hierarchy translates (its misses
// then re-walked on the twin walker), the shared data-cache front
// runs once, and each variant's LLC replays the front's LLC-bound
// requests.
func hotLoop(t *replayTotals, sys *vm.System, proc *vm.Process, wl *wk.Workload, refs int) error {
	variants := experiments.StandardVariants()
	vs := make([]*variantSim, len(variants))
	for i, v := range variants {
		caches := cache.DefaultHierarchy()
		walker := mmu.NewWalker(proc.Table, caches, mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
		vs[i] = &variantSim{
			hier:   core.NewHierarchy(v.Config, walker),
			walker: walker,
			twin:   mmu.NewWalker(proc.Table, cache.DefaultHierarchy(), mmu.NewWalkCache(mmu.DefaultWalkCacheEntries)),
			caches: caches,
			pid:    proc.PID,
		}
		sys.AddShootdownHandler(vs[i])
	}
	batch := make([]wk.Ref, experiments.DefaultBatchSize)
	pfns := make([]arch.PFN, len(batch))
	front := cache.NewFront()
	var events []cache.LLCEvent

	pass := func(rs []wk.Ref) error {
		for vi, v := range vs {
			v.missed = v.missed[:0]
			start := time.Now()
			for k := range rs {
				vpn := rs[k].VA.Page()
				res := v.hier.Access(vpn)
				if res.Fault {
					return fmt.Errorf("fault at vpn %d", vpn)
				}
				if res.Walked {
					v.missed = append(v.missed, vpn)
				}
				if vi == 0 {
					pfns[k] = res.PFN
				}
			}
			t.access += time.Since(start)
			start = time.Now()
			for _, vpn := range v.missed {
				v.twin.Walk(vpn)
			}
			t.walk += time.Since(start)
		}
		events = events[:0]
		start := time.Now()
		for k := range rs {
			_, evs, _ := front.DataAccess(pfns[k].Addr()+arch.PAddr(rs[k].VA.Offset()), rs[k].Write)
			events = append(events, evs...)
		}
		t.front += time.Since(start)
		start = time.Now()
		for _, v := range vs {
			llc := v.caches.LLC
			for _, e := range events {
				llc.Access(e.Addr, e.Write)
			}
		}
		t.llc += time.Since(start)
		t.llcEvents += uint64(len(events))
		t.llcCalls += uint64(len(events) * len(vs))
		t.refs += uint64(len(rs))
		return nil
	}

	for done := 0; done < refs; {
		m := len(batch)
		if left := refs - done; m > left {
			m = left
		}
		start := time.Now()
		n := wl.NextBatch(batch[:m])
		t.next += time.Since(start)
		// NextBatch stops after a reference to a non-resident page:
		// run the resident prefix, service the swap-in, then run the
		// faulting reference, as the engine does.
		last := batch[n-1].VA.Page()
		if _, _, ok := proc.Resolve(last); ok {
			if err := pass(batch[:n]); err != nil {
				return err
			}
		} else {
			if err := pass(batch[:n-1]); err != nil {
				return err
			}
			if _, err := proc.EnsureResident(last); err != nil {
				return err
			}
			if err := pass(batch[n-1 : n]); err != nil {
				return err
			}
		}
		done += n
	}
	for _, v := range vs {
		st := v.hier.Stats()
		t.accesses += st.Accesses
		t.l1Miss += st.L1Misses
		t.l2Miss += st.L2Misses
		t.walks += st.Walks
	}
	return nil
}

// cacheLayer times the public result-cache calls on the workload's
// own report bytes, in a fresh cache directory on the daemon's
// filesystem: one Put per report, then five Get rounds. It returns the
// median ms per Get and per Put.
func cacheLayer(dir string, reports map[string][]byte) (getMs, putMs float64, err error) {
	c, err := server.OpenCache(dir)
	if err != nil {
		return 0, 0, err
	}
	var gets, puts []float64
	for key, b := range reports {
		start := time.Now()
		if err := c.Put(key, "perfbench", b); err != nil {
			return 0, 0, fmt.Errorf("cache put: %w", err)
		}
		puts = append(puts, msSince(start))
	}
	for round := 0; round < 5; round++ {
		for key, want := range reports {
			start := time.Now()
			got, ok := c.Get(key)
			gets = append(gets, msSince(start))
			if !ok || !bytes.Equal(got, want) {
				return 0, 0, fmt.Errorf("cache get %s: bytes not returned intact", key)
			}
		}
	}
	return median(gets), median(puts), nil
}
