package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"colt/internal/experiments"
)

// spec is a coltd job submission (the POST /v1/jobs body). Only the
// fields the workloads vary are spelled out; the daemon fills the rest
// from its defaults.
type spec struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick,omitempty"`
	Refs       int    `json:"refs,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
}

func (s spec) String() string {
	return fmt.Sprintf("{experiment:%s quick:%v refs:%d seed:%d}", s.Experiment, s.Quick, s.Refs, s.Seed)
}

// expectedRecords is the record count of a correct report, per
// experiment: one record per benchmark (14); table1 pairs each
// benchmark with THS on and off; the timeline experiment follows two
// benchmarks.
var expectedRecords = map[string]int{
	"fig18":    14,
	"fig20":    14,
	"table1":   28,
	"timeline": 2,
}

// harnessPlan is the simulator work one of a workload's simulating
// jobs does, as the replay harness re-creates it layer by layer.
type harnessPlan struct {
	setups  []experiments.SystemSetup
	benches []string // nil: every benchmark
	// hotLoop streams warmup+refs references through the TLB, page
	// walk and data-cache layers after the build.
	hotLoop bool
}

// workload is one traffic mix the benchmark drives coltd with.
type workload struct {
	name string
	// clients is the closed loop's concurrency, each client a sweep
	// script waiting for its report.
	clients int
	// tailPct is the fixed tail percentile reported as lat_tail_ms:
	// tailRule applied to expectedReqs, the fewest requests an
	// untraced run of benchSeconds completed on the 2-vCPU reference
	// host over the ten-seed sets run on it, its slow phases included
	// (workloads_test.go holds the two together).
	tailPct      float64
	expectedReqs int
	// digestN is how many requests, from the start of the sequence,
	// the determinism digest covers; a run issues at least this many
	// whatever its length.
	digestN int
	// request is request i of the sequence for a seed.
	request func(seed uint64, i int) spec
	// universe is the set of specs prewarmed into the cache before the
	// measured window (nil for cold workloads).
	universe func(seed uint64) []spec
	// simSpec is the n-th simulating spec of the workload, which the
	// traced run also executes in-process.
	simSpec func(seed uint64, n int) spec
	harness harnessPlan
}

// benchSeconds is the run length BENCHMARK.json fixes.
const benchSeconds = 30

// The seeds: measureSeed is the one baselines are taken at,
// heldOutSeed is kept back so a later claimed gain can be re-checked
// on inputs the change was not tuned against.
const (
	measureSeed = 1
	heldOutSeed = 9973
)

// warm-mixed reads the repository's official serving universe
// (cmd/coltload's defaults, used by scripts/bench_serve.sh): 64 specs
// at refs 2000 with Zipf(1.1) popularity. warmWriteEvery is one write
// per that many requests.
const (
	warmUniverseSize = 64
	warmUniverseRefs = 2000
	warmZipfS        = 1.1
	warmWriteEvery   = 100
)

var workloads = []workload{
	// Every request is a fresh-seed quick fig18 job (14 benchmarks x 4
	// TLB variants): nothing is cached or coalesced, and the
	// TLB/walk/cache hot loop does most of the work. Two clients, one
	// per vCPU of the 2-vCPU reference host: coltd runs one job at a
	// time, so one client's job waits in its queue.
	{
		name:         "cold-fig18",
		clients:      2,
		tailPct:      75,
		expectedReqs: 60,
		digestN:      6,
		request:      coldFig18,
		simSpec:      coldFig18,
		harness: harnessPlan{
			setups:  []experiments.SystemSetup{experiments.SetupTHSOnNormal},
			hotLoop: true,
		},
	},
	// Zipf reads of prewarmed fig18 reports plus one fresh timeline job
	// in a hundred: the read path sets the median, simulate + commit +
	// fsync + journal set the tail, so a gain on one side that costs
	// the other shows here.
	//
	// One client: with two, each write overlapped the other client's
	// reads, so its latency moved with how the two shared the CPUs, and
	// between runs lat_tail_ms swung 1.8 times as far (in log terms) as
	// coltd's CPU per request did, a quartile spread of 0.28. Alone, a
	// write's latency follows the host's speed (0.13 on the same seeds).
	{
		name:         "warm-mixed",
		clients:      1,
		tailPct:      99.9,
		expectedReqs: 19000,
		digestN:      400,
		request:      warmRequest,
		universe:     warmUniverse,
		simSpec:      warmWrite,
		harness: harnessPlan{
			setups:  []experiments.SystemSetup{experiments.SetupTHSOnMemhog50},
			benches: []string{"Mcf", "Sjeng"},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q; valid: %v", name, names)
}

func fig18Quick(seed uint64) spec { return spec{Experiment: "fig18", Quick: true, Seed: seed} }

func coldFig18(seed uint64, i int) spec { return fig18Quick(mix(seed, "cold-fig18", i)) }

// warmUniverse is warm-mixed's prewarmed set: fig18 reports (the
// common ~83 KB artifact) at the official universe's short trace, so
// prewarming stays cheap while the served bytes keep their full shape.
func warmUniverse(seed uint64) []spec {
	u := make([]spec, warmUniverseSize)
	for j := range u {
		u[j] = warmRead(seed, j)
	}
	return u
}

// warmRead is rank j of the universe.
func warmRead(seed uint64, j int) spec {
	return spec{Experiment: "fig18", Quick: true, Refs: warmUniverseRefs, Seed: mix(seed, "warm-universe", j)}
}

// warmWrite is a fresh small job that simulates, commits, fsyncs and
// journals (~30 ms).
func warmWrite(seed uint64, i int) spec {
	return spec{Experiment: "timeline", Quick: true, Refs: 1000, Seed: mix(seed, "warm-write", i)}
}

// warmZipfCDF is the cumulative Zipf(warmZipfS) distribution over the
// universe ranks.
var warmZipfCDF = func() []float64 {
	cdf := make([]float64, warmUniverseSize)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), warmZipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

// warmRequest writes at fixed positions, exactly one request in
// warmWriteEvery, so every seed and run length carries the same write
// share (a drawn share moved it by ±10% between seeds).
func warmRequest(seed uint64, i int) spec {
	if i%warmWriteEvery == warmWriteEvery-1 {
		return warmWrite(seed, i)
	}
	u := float64(mix(seed, "warm-mixed", i)>>11) / (1 << 53)
	k := 0
	for k < len(warmZipfCDF)-1 && warmZipfCDF[k] < u {
		k++
	}
	return warmRead(seed, k)
}

// mix derives a well-spread, nonzero 64-bit value from a seed, a salt
// and an index (splitmix64's finalizer over their combination). Every
// seed a workload sends is mix of the benchmark seed, so the same seed
// reproduces the same request sequence.
func mix(seed uint64, salt string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	x := seed ^ h.Sum64() ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
