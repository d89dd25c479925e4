package experiments

import (
	"testing"

	"colt/internal/arch"
	"colt/internal/contig"
	"colt/internal/mm"
	"colt/internal/workload"
)

// TestProbeSystemState is a diagnostic: it prints the memory state the
// characterization runs against (free-block histogram, pinned density,
// THP statistics, contiguity) so calibration drift is visible in -v
// output. It asserts only broad sanity.
func TestProbeSystemState(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic probe")
	}
	opts := DefaultOptions()
	opts.Frames = 1 << 18
	spec, _ := workload.ByName("Mcf")
	for _, setup := range []SystemSetup{SetupTHSOnNormal, SetupTHSOffNormal, SetupTHSOffLow} {
		sys, master, _, err := buildSystem(setup, opts, spec.Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		free := sys.Buddy.FreePages()
		var hist [mm.MaxOrder]int
		for k := 0; k < mm.MaxOrder; k++ {
			hist[k] = sys.Buddy.FreeBlocksOfOrder(k)
		}
		pinned := 0
		for i := 0; i < sys.Phys.NumFrames(); i++ {
			pfn := arch.PFN(i)
			if sys.Phys.Allocated(pfn) && !sys.Phys.Frame(pfn).Movable {
				pinned++
			}
		}
		proc, err := sys.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Build(spec.Scale(opts.Scale), proc, master.Stream("workload")); err != nil {
			t.Fatal(err)
		}
		res := contig.Scan(proc.Table)
		t.Logf("%s:", setup.Name)
		t.Logf("  pre-bench free=%d (%.0f%%), pinned(unmovable)=%d (1/%d), blocks=%v",
			free, 100*float64(free)/float64(sys.Phys.NumFrames()), pinned,
			safeDiv(sys.Phys.NumFrames(), pinned), hist)
		t.Logf("  THP: %+v  compact: %+v", sys.THP.Stats(), sys.Compactor.Stats())
		t.Logf("  contiguity: avg=%.1f nonSuper=%d super=%d maxRun=%d frac>512=%.2f",
			res.AverageContiguity(), res.NonSuperPages, res.SuperPages, res.MaxRun, res.FractionAtLeast(513))
		if res.NonSuperPages == 0 {
			t.Errorf("%s: everything superpaged", setup.Name)
		}
	}
}

func safeDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return a / b
}
