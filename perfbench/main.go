// Command perfbench is the repository's end-to-end benchmark: it
// drives the coltd binary over loopback HTTP with closed-loop clients,
// measures what a caller of coltd sees, checks every report it is
// served, and in a separate traced run attributes the time to layers.
//
//	bash perfbench/run.sh --workload cold-fig18 --seed 1 --seconds 30 --trace 0
//
// run.sh builds coltd and this program from source first. The last
// line of standard output is one JSON object with the metrics; the
// lines before it print every metric with its unit, the host
// fingerprint, the determinism digest and the correctness gate.
//
// Seeds: baselines are measured at seed 1 (measureSeed); seed 9973
// (heldOutSeed) is held out for re-checking a claimed gain on inputs
// the change was not tuned against.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// warmupWindow is how long the closed loop runs before any window is
// measured, so the daemon's heap, the page cache and the cache index
// settle after set-up. Its requests are verified and counted as
// attempted like any other, but not timed.
const warmupWindow = 3 * time.Second

// setupRepsCold and setupRepsWarm are how many times a run sets the
// daemon up afresh; setup_s is the median. A bare daemon start costs
// about 3 ms and is noisy at that scale, so the cold workload repeats
// it far more often than the prewarmed one, whose set-up costs seconds.
const (
	setupRepsCold = 21
	setupRepsWarm = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wname   = flag.String("workload", "cold-fig18", "workload to run")
		seed    = flag.Uint64("seed", measureSeed, "workload seed: the request sequence is a pure function of it")
		seconds = flag.Int("seconds", benchSeconds, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
		root    = flag.String("root", ".", "repository root (goldens are read from it, run files go under .bench_build)")
		bin     = flag.String("coltd", "", "coltd binary to drive")
	)
	flag.Parse()
	w, err := workloadByName(*wname)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" {
		return fail(fmt.Errorf("need -seconds >= 1, -trace 0 or 1, and -coltd"))
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		return fail(err)
	}
	outDir := filepath.Join(rootAbs, ".bench_build", "perfbench")
	work := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	b := bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		root: rootAbs, work: work, outDir: outDir, bin: *bin}
	res, err := b.run()
	if err != nil {
		return fail(err)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", e)
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.result.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run.
type bench struct {
	w                       workload
	seed                    uint64
	window                  time.Duration
	traced                  bool
	root, work, outDir, bin string

	metrics map[string]metric
}

type runResult struct {
	result result
	errs   []error // correctness failures, each naming its spec
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-32s %14.6f %s\n", name, v, unit)
}

func (b *bench) run() (runResult, error) {
	b.metrics = map[string]metric{}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s commit=%s cache_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(b.root), fsName(b.work))
	fmt.Printf("run workload=%s seed=%d window=%s clients=%d traced=%v\n", b.w.name, b.seed, b.window, b.w.clients, b.traced)

	d, c, setupS, err := b.setUp()
	if err != nil {
		return runResult{}, err
	}
	defer d.stop()
	defer c.close()

	var outs []outcome
	if b.traced {
		outs, err = b.tracedRun(d, c)
	} else {
		outs, err = b.untracedRun(d, c, setupS)
	}
	if err != nil {
		return runResult{}, err
	}

	gate, gateErrs := runGate(c, b.root)
	res := runResult{errs: gateErrs}
	// The workload's shape is part of what a run checks: a prewarmed
	// spec must be served from the cache, and nothing else can be (the
	// other specs are all distinct), nor coalesced.
	universe := map[spec]bool{}
	if b.w.universe != nil {
		for _, s := range b.w.universe(b.seed) {
			universe[s] = true
		}
	}
	failed := 0
	for _, o := range outs {
		if !o.ok {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d %s failed: %s\n", o.idx, o.spec, o.failure)
		}
		if o.mismatch {
			res.errs = append(res.errs, fmt.Errorf("request %d %s: %s", o.idx, o.spec, o.failure))
		}
		if o.ok && (o.cached != universe[o.spec] || o.coalesced) {
			res.errs = append(res.errs, fmt.Errorf("request %d %s: served cached=%v coalesced=%v, the workload expects cached=%v and no coalescing",
				o.idx, o.spec, o.cached, o.coalesced, universe[o.spec]))
		}
	}
	if len(gateErrs) == 0 {
		fmt.Printf("gate ok: %d golden specs served byte-identical to %s\n", len(gate), goldenDir)
	}
	fmt.Printf("digest %s over the first %d requests and %d golden specs\n", digest(outs, b.w.digestN, gate), b.w.digestN, len(gate))
	res.result = result{Correct: len(res.errs) == 0, Attempted: len(outs), Failed: failed, Metrics: b.metrics}
	return res, nil
}

// setUp starts coltd on a fresh cache directory and prewarms it,
// several times; every daemon but the last is stopped again. It
// returns the last daemon, a client for it, and the median set-up time
// (exec to /v1/readyz 200, plus prewarm).
func (b *bench) setUp() (*daemon, *client, float64, error) {
	reps := setupRepsCold
	if b.w.universe != nil {
		reps = setupRepsWarm
	}
	var times []float64
	for r := 0; ; r++ {
		dir := filepath.Join(b.work, fmt.Sprintf("cache-%d", r))
		d, ready, err := startDaemon(b.bin, dir, b.traced)
		if err != nil {
			return nil, nil, 0, err
		}
		c := newClient(d.base)
		t := ready.Seconds()
		if b.w.universe != nil {
			pt, err := prewarm(c, b.w.universe(b.seed), b.w.clients)
			if err != nil {
				c.close()
				d.stop()
				return nil, nil, 0, err
			}
			t += pt.Seconds()
		}
		times = append(times, t)
		if r == reps-1 {
			fmt.Printf("setup %d runs (s): %v\n", reps, times)
			return d, c, median(times), nil
		}
		c.close()
		d.stop()
	}
}

// prewarm serves every universe spec once, with the closed loop's
// concurrency, so the measured window reads them from the cache.
func prewarm(c *client, universe []spec, clients int) (time.Duration, error) {
	start := time.Now()
	outs := c.loop(func(i int) spec { return universe[i] }, clients, 0, len(universe), 0)
	for _, o := range outs {
		if !o.ok {
			return 0, fmt.Errorf("prewarm %s: %s", o.spec, o.failure)
		}
	}
	return time.Since(start), nil
}

// window is one closed-loop measurement and the daemon's resource use
// over it.
type window struct {
	outs    []outcome
	elapsed time.Duration
	cpuMs   float64
}

func (b *bench) measure(d *daemon, c *client, first, minReqs int, dur time.Duration) (window, error) {
	cpu0, err := d.cpuTicks()
	if err != nil {
		return window{}, err
	}
	start := time.Now()
	outs := c.loop(b.request, b.w.clients, first, minReqs, dur)
	elapsed := time.Since(start)
	cpu1, err := d.cpuTicks()
	if err != nil {
		return window{}, err
	}
	return window{outs: outs, elapsed: elapsed, cpuMs: float64((cpu1 - cpu0) * msPerTick)}, nil
}

func (win window) okCount() int {
	n := 0
	for _, o := range win.outs {
		if o.ok {
			n++
		}
	}
	return n
}

func (win window) latencies() []float64 {
	lat := make([]float64, len(win.outs))
	for i, o := range win.outs {
		lat[i] = o.latency
	}
	return lat
}

func (win window) goodput() float64 { return float64(win.okCount()) / win.elapsed.Seconds() }

// warmUp runs the closed loop for warmupWindow from the start of the
// sequence.
func (b *bench) warmUp(c *client) []outcome {
	return c.loop(b.request, b.w.clients, 0, 0, warmupWindow)
}

// request is request i of the run's sequence.
func (b *bench) request(i int) spec { return b.w.request(b.seed, i) }

func (b *bench) untracedRun(d *daemon, c *client, setupS float64) ([]outcome, error) {
	warm := b.warmUp(c)
	win, err := b.measure(d, c, len(warm), b.w.digestN-len(warm), b.window)
	if err != nil {
		return nil, err
	}
	ok := win.okCount()
	lat := win.latencies()
	b.set("goodput_rps", win.goodput(), "1/s")
	b.set("lat_p50_ms", percentile(lat, 50), "ms")
	b.set("lat_tail_ms", percentile(lat, b.w.tailPct), "ms")
	fmt.Printf("lat_tail_ms is p%g: %d of %d samples beyond it\n", b.w.tailPct, beyond(len(lat), b.w.tailPct), len(lat))
	b.set("ok_frac", float64(ok)/float64(len(win.outs)), "frac")
	fmt.Printf("failed_frac %.6f (%d of %d)\n", 1-float64(ok)/float64(len(win.outs)), len(win.outs)-ok, len(win.outs))
	cpuPerReq := math.Inf(1)
	if ok > 0 {
		cpuPerReq = win.cpuMs / float64(ok)
	}
	b.set("cpu_ms_per_req", cpuPerReq, "ms")
	b.set("setup_s", setupS, "s")
	return append(warm, win.outs...), nil
}

// tracedRun measures the window in three slices: a quarter untraced,
// half traced (spans, timelines, a CPU profile of the daemon), then a
// quarter untraced again, and derives the per-layer metrics. The
// tracing overhead compares the traced half with the two untraced
// quarters taken together, so a drift in host speed over the window
// falls on both sides alike.
func (b *bench) tracedRun(d *daemon, c *client) ([]outcome, error) {
	quarter := b.window / 4
	warm := b.warmUp(c)
	before, err := b.measure(d, c, len(warm), b.w.digestN-len(warm), quarter)
	if err != nil {
		return nil, err
	}
	rec := newSpanRecorder()
	for k := 1; k <= b.w.clients; k++ {
		rec.nameRow(k, fmt.Sprintf("client %d", k))
		rec.nameRow(serverTid(k), fmt.Sprintf("server phases (client %d)", k))
	}
	rec.nameRow(replayTid, "replay harness")
	c.spans = rec
	c.keepReports = 32
	profSecs := int(2 * quarter / time.Second)
	if profSecs < 1 {
		profSecs = 1
	}
	profile := filepath.Join(b.work, "cpu.pprof")
	profErr := make(chan error, 1)
	go func() { profErr <- fetchProfile(d.debug, profSecs, profile) }()
	traced, err := b.measure(d, c, len(warm)+len(before.outs), 0, 2*quarter)
	if err != nil {
		return nil, err
	}
	if err := <-profErr; err != nil {
		return nil, fmt.Errorf("profiling coltd: %w", err)
	}
	c.spans = nil
	after, err := b.measure(d, c, len(warm)+len(before.outs)+len(traced.outs), 0, quarter)
	if err != nil {
		return nil, err
	}
	plain := window{outs: append(append([]outcome(nil), before.outs...), after.outs...), elapsed: before.elapsed + after.elapsed}
	// Peak RSS is a per-layer figure, not an end-to-end one: the GC's
	// pacing moves it by up to a quarter between runs of the same code.
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.set("coltd.peak_rss_mb", rss, "MB")

	b.serverLayer(traced.outs)
	pl, tl := plain.latencies(), traced.latencies()
	b.set("trace.p50_overhead_frac", percentile(tl, 50)/percentile(pl, 50)-1, "frac")
	b.set("trace.goodput_overhead_frac", 1-traced.goodput()/plain.goodput(), "frac")

	getMs, putMs, err := cacheLayer(filepath.Join(b.work, "cache-timing"), c.kept)
	if err != nil {
		return nil, err
	}
	b.set("server.cache_get_ms", getMs, "ms")
	b.set("server.cache_put_ms", putMs, "ms")

	shares, err := packageShares(profile)
	if err != nil {
		return nil, err
	}
	b.setAll(shares, "frac")

	exp, err := experimentsLayer(b.w, b.seed, 2)
	if err != nil {
		return nil, err
	}
	b.setAll(exp, "")

	rep, err := replay(b.w, b.seed, rec)
	if err != nil {
		return nil, err
	}
	b.setAll(rep, "")

	tracePath := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	if err := rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("chrome trace (open in Perfetto): %s\n", tracePath)
	return append(append(append(warm, before.outs...), traced.outs...), after.outs...), nil
}

// setAll sets metrics in name order; an empty unit is taken from the
// name's suffix.
func (b *bench) setAll(m map[string]float64, unit string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		u := unit
		if u == "" {
			u = unitOf(k)
		}
		b.set(k, m[k], u)
	}
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb_per_job"):
		return "MB"
	case strings.Contains(name, "ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_per_kref"):
		return "1/kref"
	default:
		return "frac"
	}
}

// serverLayer derives the server metrics from the traced window's
// requests: client-timed HTTP calls, server timeline deltas, and the
// admission outcome shares.
func (b *bench) serverLayer(outs []outcome) {
	var submit, report []float64
	phases := map[string][]float64{}
	waits, hits, coalesced := 0, 0, 0
	for _, o := range outs {
		if !o.ok {
			continue
		}
		submit = append(submit, o.submitMs)
		report = append(report, o.reportMs)
		waits += o.waits
		if o.cached {
			hits++
		}
		if o.coalesced {
			coalesced++
		}
		for _, p := range serverPhases {
			if a, b, ok := phaseBounds(o.timeline, p.from, p.to); ok {
				phases[p.metric] = append(phases[p.metric], float64(b-a)/1e6)
			}
		}
	}
	n := float64(len(outs))
	b.set("server.submit_ms", median(submit), "ms")
	b.set("server.report_ms", median(report), "ms")
	for _, p := range serverPhases {
		b.set(p.metric, median(phases[p.metric]), "ms")
	}
	b.set("server.polls_per_req", float64(waits)/n, "count")
	b.set("server.cache_hit_frac", float64(hits)/n, "frac")
	b.set("server.coalesced_frac", float64(coalesced)/n, "frac")
}

// digest hashes the (spec hash, report SHA-256) pairs of the first n
// requests of the sequence and of the golden specs. The sequence is a
// function of the seed alone, so the digest repeats exactly for a
// fixed seed, and a change that only alters speed leaves it unchanged.
func digest(outs []outcome, n int, gate []outcome) string {
	pick := make([]outcome, 0, n+len(gate))
	for _, o := range outs {
		if o.idx >= 0 && o.idx < n {
			pick = append(pick, o)
		}
	}
	sort.Slice(pick, func(i, j int) bool { return pick[i].idx < pick[j].idx })
	pick = append(pick, gate...)
	h := sha256.New()
	for _, o := range pick {
		fmt.Fprintf(h, "%s %s\n", o.specHash, o.sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}
