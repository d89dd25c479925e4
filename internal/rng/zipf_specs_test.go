package rng_test

import (
	"fmt"
	"testing"

	"colt/internal/experiments"
	"colt/internal/rng"
	"colt/internal/workload"
)

// zipfSpecDraws is how many draws each workload's (hot-set size,
// skew) pair is checked over.
const zipfSpecDraws = 10_000_000

// TestZipfWorkloadSpecs checks the sampler against the reference at
// every workload's hot-set size and skew, at Quick and Default scale:
// exactly the (n, s) pairs that decide experiment report bytes.
func TestZipfWorkloadSpecs(t *testing.T) {
	type pair struct {
		n int
		s float64
	}
	seen := map[pair]bool{}
	for _, opts := range []experiments.Options{experiments.QuickOptions(), experiments.DefaultOptions()} {
		for _, spec := range workload.All() {
			p := pair{spec.Scale(opts.Scale).HotPages, spec.ZipfS}
			if seen[p] {
				continue
			}
			seen[p] = true
			t.Run(fmt.Sprintf("n=%d/s=%v", p.n, p.s), func(t *testing.T) {
				t.Parallel()
				rng.CheckZipfExact(t, p.n, p.s, uint64(p.n), zipfSpecDraws)
			})
		}
	}
}
