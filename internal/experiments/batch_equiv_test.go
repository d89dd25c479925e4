package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"colt/internal/metrics"
)

// The batching-equivalence harness: stepBatch is an optimization, not a
// semantic change, so the stable report JSON of every golden experiment
// must be byte-identical at every batch size — including 1, the batch
// of one that traced jobs run — and at every parallel width. This is
// the contract that lets the hot loop batch aggressively: any
// observable divergence (a counter, a latency, a histogram bucket)
// fails here before it can reach a golden.

// equivReport runs one golden experiment at the given batch size and
// parallel width and returns its stable JSON.
func equivReport(name string, run func(Options) error, batch, parallel int) ([]byte, error) {
	opts := GoldenOptions()
	opts.BatchSize = batch
	opts.Parallel = parallel
	opts.Metrics = metrics.NewCollector()
	if err := run(opts); err != nil {
		return nil, fmt.Errorf("%s[batch=%d,par=%d]: %w", name, batch, parallel, err)
	}
	if opts.Metrics.Len() == 0 {
		return nil, fmt.Errorf("%s[batch=%d,par=%d]: no metrics records collected", name, batch, parallel)
	}
	return opts.Metrics.Report(name, opts.Snapshot()).StableJSON()
}

func TestBatchSizeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence runs simulate full reference streams")
	}
	batches := []int{1, 8, 64, 256}
	widths := []int{1, 8}
	for _, g := range goldenExperiments {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			// The reference report: batches of one, serial driver.
			want, err := equivReport(g.name, g.run, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range batches {
				for _, parallel := range widths {
					if batch == 1 && parallel == 1 {
						continue
					}
					got, err := equivReport(g.name, g.run, batch, parallel)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						diffs := metrics.Diff(got, want)
						t.Errorf("%s: batch=%d parallel=%d diverges from scalar serial run (%d fields differ):\n%s",
							g.name, batch, parallel, len(diffs), strings.Join(diffs, "\n"))
					}
				}
			}
		})
	}
}
