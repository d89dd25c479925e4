package pagetable

import (
	"testing"

	"colt/internal/arch"
)

// The translation-side operations (Walk, Lookup, Resolve, Line) run
// once or more per simulated memory reference; any per-call allocation
// multiplies across the billions of references of a full experiment
// sweep. These guards pin them at zero.
func TestTranslationPathZeroAlloc(t *testing.T) {
	tbl, _ := newTable(t)
	for i := 0; i < 64; i++ {
		if err := tbl.Map(arch.VPN(100+i), basePTE(arch.PFN(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MapHuge(arch.PagesPerHuge*4, hugePTE(8192)); err != nil {
		t.Fatal(err)
	}
	hole := arch.VPN(1) << 30

	cases := []struct {
		name string
		fn   func()
	}{
		{"Walk/base", func() { tbl.Walk(110) }},
		{"Walk/huge", func() { tbl.Walk(arch.PagesPerHuge*4 + 7) }},
		{"Walk/hole", func() { tbl.Walk(hole) }},
		{"Lookup", func() { tbl.Lookup(110) }},
		{"Resolve", func() { tbl.Resolve(arch.PagesPerHuge*4 + 7) }},
		{"Line", func() { tbl.Line(110) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.name, avg)
		}
	}
}

// The mutation operations descend into a caller-owned array rather than
// a per-call slice: the churn phase's Unmap and the compaction daemon's
// Remap run thousands of times per system build.
func TestMutationPathZeroAlloc(t *testing.T) {
	tbl, _ := newTable(t)
	// Neighbouring mappings keep the PT and PMD tables alive, so an
	// unmap prunes nothing and the re-map allocates no table.
	for i := 0; i < 4; i++ {
		if err := tbl.Map(arch.VPN(100+i), basePTE(arch.PFN(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, blk := range []arch.VPN{4, 5} {
		if err := tbl.MapHuge(arch.PagesPerHuge*blk, hugePTE(arch.PFN(8192+arch.PagesPerHuge*blk))); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Unmap", func() { must(tbl.Unmap(101)); must(tbl.Map(101, basePTE(501))) }},
		{"Remap", func() { must(tbl.Remap(102, 702)) }},
		{"UnmapHuge", func() {
			must(tbl.UnmapHuge(arch.PagesPerHuge * 4))
			must(tbl.MapHuge(arch.PagesPerHuge*4, hugePTE(8192+arch.PagesPerHuge*4)))
		}},
		// SplitHuge's own PT allocation is inherent; its path lookup
		// is not. Block 0 holds base pages, so the lookup rejects it.
		{"SplitHuge/path", func() {
			if err := tbl.SplitHuge(0); err != ErrNotMapped {
				t.Fatalf("SplitHuge(0) = %v, want ErrNotMapped", err)
			}
		}},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.name, avg)
		}
	}
}
