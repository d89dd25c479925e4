package workload

import (
	"testing"

	"colt/internal/arch"
	"colt/internal/mm"
	"colt/internal/rng"
	"colt/internal/trace"
	"colt/internal/vm"
)

func buildOne(t *testing.T, spec Spec, frames int, thp bool) (*vm.System, *Workload) {
	t.Helper()
	sys := vm.NewSystem(vm.Config{Frames: frames, THP: thp, Compaction: mm.CompactionNormal})
	proc, err := sys.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(spec, proc, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys, w
}

func TestSpecsTable(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("expected 14 benchmarks, got %d", len(all))
	}
	if all[0].Name != "Mcf" || all[13].Name != "Milc" {
		t.Fatal("Table-1 ordering broken")
	}
	seen := make(map[string]bool)
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate benchmark %s", s.Name)
		}
		seen[s.Name] = true
		if s.HotPages <= 0 || s.ColdPages <= 0 || s.InstPerRef <= 0 {
			t.Fatalf("%s: degenerate spec %+v", s.Name, s)
		}
		if s.ColdFrac < 0 || s.ColdFrac > 1 || s.WriteFrac < 0 || s.WriteFrac > 1 {
			t.Fatalf("%s: fractions out of range", s.Name)
		}
	}
	// Mutating the returned slice must not corrupt the table.
	all[0].Name = "clobbered"
	if All()[0].Name != "Mcf" {
		t.Fatal("All returns aliased table")
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Milc")
	if err != nil || s.Name != "Milc" {
		t.Fatalf("ByName = %+v, %v", s, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(Names()) != 14 {
		t.Fatal("Names length")
	}
}

func TestScale(t *testing.T) {
	s, _ := ByName("Mcf")
	half := s.Scale(0.5)
	if half.HotPages != s.HotPages/2 || half.ColdPages != s.ColdPages/2 {
		t.Fatalf("Scale(0.5) = %+v", half)
	}
	tiny := s.Scale(0.00001)
	if tiny.HotPages < 8 || tiny.AllocChunk > tiny.ColdPages {
		t.Fatalf("tiny scale degenerate: %+v", tiny)
	}
}

func TestBuildAllocatesFootprint(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 64, ColdPages: 512, AllocChunk: 128,
		ColdFrac: 0.3, InstPerRef: 3, BurstMean: 2,
	}
	_, w := buildOne(t, spec, 1<<13, false)
	if len(w.hot) != 64 || len(w.cold) != 512 {
		t.Fatalf("pools: hot=%d cold=%d", len(w.hot), len(w.cold))
	}
	if w.FootprintPages() != 576 {
		t.Fatalf("FootprintPages = %d", w.FootprintPages())
	}
	// All pool pages must resolve.
	for _, vpn := range append(append([]arch.VPN{}, w.hot...), w.cold...) {
		if _, _, ok := w.Proc.Resolve(vpn); !ok {
			t.Fatalf("pool page %d unmapped", vpn)
		}
	}
}

func TestBuildFreeHoles(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 32, ColdPages: 1024, AllocChunk: 256,
		FreeHoles: 0.2, ColdFrac: 0.3, InstPerRef: 3,
	}
	_, w := buildOne(t, spec, 1<<13, false)
	if len(w.cold) >= 1024 {
		t.Fatalf("FreeHoles did not free anything: %d cold pages", len(w.cold))
	}
	if len(w.cold) < 700 {
		t.Fatalf("FreeHoles freed too much: %d", len(w.cold))
	}
}

func TestBuildFileBacked(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 32, ColdPages: 512, AllocChunk: 64,
		FileFrac: 1.0, ColdFrac: 0.5, InstPerRef: 3,
	}
	_, w := buildOne(t, spec, 1<<13, true)
	// Every cold page must carry the file-backed attribute.
	for _, vpn := range w.cold {
		_, attr, _ := w.Proc.Resolve(vpn)
		if !attr.Has(arch.AttrFileBacked) {
			t.Fatalf("cold page %d not file-backed", vpn)
		}
	}
}

func TestBuildOOM(t *testing.T) {
	spec := Spec{Name: "T", HotPages: 64, ColdPages: 1 << 16, AllocChunk: 1024, InstPerRef: 1}
	sys := vm.NewSystem(vm.Config{Frames: 1 << 10, THP: false, Compaction: mm.CompactionNormal})
	proc, _ := sys.NewProcess()
	if _, err := Build(spec, proc, rng.New(1)); err == nil {
		t.Fatal("oversized workload built on tiny machine")
	}
}

func TestNextStreamProperties(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 64, ColdPages: 512, AllocChunk: 128,
		ColdFrac: 0.3, ZipfS: 0.5, BurstMean: 3, InstPerRef: 5, WriteFrac: 0.4,
	}
	_, w := buildOne(t, spec, 1<<13, false)
	writes, insts := 0, 0
	pool := make(map[arch.VPN]bool)
	for _, v := range w.hot {
		pool[v] = true
	}
	for _, v := range w.cold {
		pool[v] = true
	}
	const n = 20000
	for i := 0; i < n; i++ {
		va, wr, gap := w.Next()
		if gap < 1 || gap > 2*5-1 {
			t.Fatalf("gap %d out of range", gap)
		}
		if uint64(va)%8 != 0 {
			t.Fatalf("address %x not 8-byte aligned", va)
		}
		vpn := va.Page()
		// Bursts may step into neighboring mapped pages of the same
		// process, so validate against the page table.
		if _, _, ok := w.Proc.Resolve(vpn); !ok {
			t.Fatalf("reference to unmapped page %d", vpn)
		}
		if wr {
			writes++
		}
		insts += gap
	}
	if writes < n/4 || writes > n*6/10 {
		t.Fatalf("write fraction off: %d/%d", writes, n)
	}
	if insts < 4*n || insts > 6*n {
		t.Fatalf("instruction density off: %d for %d refs", insts, n)
	}
	_ = pool
}

func TestNextSeqScanStreams(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 16, ColdPages: 256, AllocChunk: 64,
		ColdFrac: 1.0, SeqScan: true, BurstMean: 1, InstPerRef: 2,
	}
	_, w := buildOne(t, spec, 1<<13, false)
	first, _, _ := w.Next()
	second, _, _ := w.Next()
	third, _, _ := w.Next()
	// Sequential scan: consecutive cold pages in pool order.
	if second.Page() != first.Page()+1 || third.Page() != second.Page()+1 {
		t.Fatalf("scan not sequential: %d %d %d", first.Page(), second.Page(), third.Page())
	}
}

func TestBuildDeterminism(t *testing.T) {
	spec, _ := ByName("Gobmk")
	spec = spec.Scale(0.2)
	_, w1 := buildOne(t, spec, 1<<13, true)
	_, w2 := buildOne(t, spec, 1<<13, true)
	for i := 0; i < 1000; i++ {
		a1, wr1, g1 := w1.Next()
		a2, wr2, g2 := w2.Next()
		if a1 != a2 || wr1 != wr2 || g1 != g2 {
			t.Fatalf("streams diverged at ref %d", i)
		}
	}
}

func TestAllBenchmarksBuildSmall(t *testing.T) {
	for _, spec := range All() {
		spec := spec.Scale(0.05)
		sys := vm.NewSystem(vm.Config{Frames: 1 << 14, THP: true, Compaction: mm.CompactionNormal})
		proc, _ := sys.NewProcess()
		w, err := Build(spec, proc, rng.New(7))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i := 0; i < 100; i++ {
			w.Next()
		}
		_ = sys
	}
}

func TestScaleCold(t *testing.T) {
	s, _ := ByName("Mcf")
	c := s.ScaleCold(2)
	if c.ColdPages != s.ColdPages*2 {
		t.Fatalf("ScaleCold cold = %d", c.ColdPages)
	}
	if c.HotPages != s.HotPages {
		t.Fatal("ScaleCold touched the hot set")
	}
	tiny := s.ScaleCold(0.000001)
	if tiny.ColdPages < 8 || tiny.AllocChunk > tiny.ColdPages {
		t.Fatalf("tiny ScaleCold degenerate: %+v", tiny)
	}
}

func TestHotHolesThinHotSet(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 256, ColdPages: 64, AllocChunk: 64,
		HotHoles: 0.25, ColdFrac: 0.1, InstPerRef: 2,
	}
	_, w := buildOne(t, spec, 1<<13, false)
	if len(w.hot) >= 256 {
		t.Fatalf("HotHoles freed nothing: %d hot pages", len(w.hot))
	}
	if len(w.hot) < 150 {
		t.Fatalf("HotHoles freed too much: %d", len(w.hot))
	}
}

func TestCapture(t *testing.T) {
	spec := Spec{
		Name: "T", HotPages: 32, ColdPages: 128, AllocChunk: 64,
		ColdFrac: 0.2, InstPerRef: 3, BurstMean: 2,
	}
	_, w := buildOne(t, spec, 1<<13, false)
	tr := w.Capture(500)
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Instructions() < 500 {
		t.Fatalf("Instructions = %d", tr.Instructions())
	}
	// Captured addresses must all be resolvable.
	tr.Replay(func(r trace.Record) bool {
		if _, _, ok := w.Proc.Resolve(r.VAddr.Page()); !ok {
			t.Fatalf("captured unmapped page %d", r.VAddr.Page())
		}
		return true
	})
}

// TestNextBatchMatchesNext pins the batched decoder's contract: each
// NextBatch slot is exactly what a Next call would have returned, with
// the page table's frame for it, at every batch size, so batching can
// never change the reference stream.
func TestNextBatchMatchesNext(t *testing.T) {
	spec, err := ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(0.05)
	for _, size := range []int{1, 3, 8, 64, 256} {
		_, scalar := buildOne(t, spec, 1<<15, false)
		_, batched := buildOne(t, spec, 1<<15, false)
		dst := make([]Ref, size)
		const total = 4096
		for done := 0; done < total; {
			n := batched.NextBatch(dst)
			if n <= 0 || n > size {
				t.Fatalf("size %d: NextBatch returned %d", size, n)
			}
			for i := 0; i < n; i++ {
				va, write, gap := scalar.Next()
				pfn, _, _ := scalar.Proc.Resolve(va.Page())
				if got, want := dst[i], (Ref{VA: va, Write: write, Gap: int32(gap), PFN: pfn}); got != want {
					t.Fatalf("size %d: ref %d diverges: batch %+v scalar %+v",
						size, done+i, got, want)
				}
			}
			done += n
		}
	}
}
