package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSpecs are the served specs the correctness gate compares
// byte for byte against the engine's checked-in goldens: GoldenOptions
// is quick with a 20000-reference trace.
var goldenSpecs = []spec{
	{Experiment: "fig18", Quick: true, Refs: 20000},
	{Experiment: "table1", Quick: true, Refs: 20000},
	{Experiment: "fig20", Quick: true, Refs: 20000},
}

// goldenDir holds the goldens, relative to the repository root.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "goldens")

// runGate serves every golden spec and checks the bytes. It returns the
// outcomes (for the digest) and one error per spec that failed.
func runGate(c *client, root string) ([]outcome, []error) {
	var outs []outcome
	var errs []error
	for i, s := range goldenSpecs {
		o := c.do(-1-i, s, 1)
		outs = append(outs, o)
		if !o.ok {
			errs = append(errs, fmt.Errorf("gate %s: %s", s, o.failure))
			continue
		}
		want, err := os.ReadFile(filepath.Join(root, goldenDir, s.Experiment+".json"))
		if err != nil {
			errs = append(errs, fmt.Errorf("gate %s: reading golden: %v", s, err))
			continue
		}
		got := o.report
		if !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("gate %s: served report (%d bytes, sha256 %s) differs from %s (%d bytes)",
				s, len(got), o.sum, filepath.Join(goldenDir, s.Experiment+".json"), len(want)))
		}
	}
	return outs, errs
}
