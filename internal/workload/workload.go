// Package workload models the paper's evaluation benchmarks (Table 1:
// SPEC CPU2006 plus BioBench) as parameterized synthetic programs. We
// do not have the benchmark binaries or the authors' Simics traces, so
// each benchmark is substituted by a model exposing the two properties
// CoLT's behaviour depends on: (a) its allocation pattern — how many
// pages each malloc requests, how much of the footprint is file-backed,
// and how much the program fragments its own heap — which determines
// the page-allocation contiguity the OS can produce; and (b) its access
// pattern — hot-set size, skew, spatial burstiness, streaming behaviour
// and instruction density — which determines TLB pressure and whether
// contiguous translations are used in temporal proximity.
package workload

import (
	"fmt"

	"colt/internal/arch"
	"colt/internal/rng"
	"colt/internal/trace"
	"colt/internal/vm"
)

// Spec parameterizes one benchmark model. Page counts are calibrated
// for the simulator's default 1 GB machine; use Scale for other sizes.
type Spec struct {
	Name  string
	Suite string

	// Memory layout.
	HotPages   int // frequently-referenced working set, in pages
	ColdPages  int // bulk data referenced rarely
	AllocChunk int // pages per malloc for bulk data: large up-front
	// allocations (Mcf's hash tables) give the buddy allocator big
	// requests and hence long contiguity runs; small chunks model
	// incremental allocators.
	FileFrac  float64 // fraction of bulk chunks that are file-backed
	FreeHoles float64 // fraction of bulk pages freed after setup
	// (self-inflicted heap fragmentation)
	HotHoles float64 // fraction of hot pages freed after setup (hot-
	// structure churn, limiting how coalescible the hot tail is)

	// Access behaviour.
	ColdFrac   float64 // probability a reference targets the cold set
	ZipfS      float64 // hot-set skew (0 = uniform)
	BurstMean  int     // mean sequential pages touched per burst
	SeqScan    bool    // cold refs stream sequentially (Bzip2, Milc)
	InstPerRef int     // mean instructions per memory reference
	WriteFrac  float64
}

// Scale returns a copy with the memory layout scaled by f (access
// behaviour is size-independent). Used to shrink footprints for small
// test machines.
func (s Spec) Scale(f float64) Spec {
	s.HotPages = scalePages(s.HotPages, f)
	s.ColdPages = scalePages(s.ColdPages, f)
	if s.AllocChunk > s.ColdPages {
		s.AllocChunk = s.ColdPages
	}
	return s
}

// ScaleCold returns a copy with only the bulk (cold) data scaled: used
// to match the paper's footprint-to-memory ratio without inflating the
// TLB-pressure-determining hot set.
func (s Spec) ScaleCold(f float64) Spec {
	s.ColdPages = scalePages(s.ColdPages, f)
	if s.AllocChunk > s.ColdPages {
		s.AllocChunk = s.ColdPages
	}
	return s
}

func scalePages(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 8 {
		v = 8
	}
	return v
}

// Workload is a built benchmark instance: its regions are allocated in
// proc and Next generates its reference stream.
type Workload struct {
	Spec Spec
	Proc *vm.Process

	hot  []arch.VPN
	cold []arch.VPN
	r    *rng.RNG
	// zipf draws hot-set indexes; built once the hot set is final.
	zipf rng.Zipf

	burstLeft int
	cur       arch.VPN
	scanPos   int
}

// Build allocates the benchmark's memory in proc following the spec's
// allocation pattern and returns a ready workload. The allocation
// history — chunk sizes, interleaving, post-setup frees — is exactly
// what the contiguity characterization scans.
func Build(spec Spec, proc *vm.Process, r *rng.RNG) (*Workload, error) {
	w := &Workload{Spec: spec, Proc: proc, r: r}

	// Interleave hot-set allocations between bulk chunks so the hot
	// pages are not one artificial mega-run.
	// Bulk (cold) data loads first; the hot structures (hash tables,
	// indexes) are built afterwards over it, in a few larger arenas.
	// Arenas of 2 MB and above are THP candidates, so on a THS-on
	// kernel part of the hot set may be superpage-backed — the Table-1
	// effect — while fragmentation keeps the superpage count small
	// enough for the paper's 8-entry coalesced FA TLB.
	hotChunk := spec.HotPages / 2
	if hotChunk < 64 {
		hotChunk = 64
	}
	if hotChunk > 1024 {
		hotChunk = 1024
	}
	var coldRegions, hotRegions []*vm.Region
	for coldLeft := spec.ColdPages; coldLeft > 0; {
		n := spec.AllocChunk
		if n <= 0 {
			n = 64
		}
		if n > coldLeft {
			n = coldLeft
		}
		var reg *vm.Region
		var err error
		if r.Bool(spec.FileFrac) {
			reg, err = proc.MapFile(n)
		} else {
			reg, err = proc.Malloc(n)
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: bulk alloc of %d pages: %w", spec.Name, n, err)
		}
		coldRegions = append(coldRegions, reg)
		coldLeft -= n
	}
	for hotLeft := spec.HotPages; hotLeft > 0; {
		n := hotChunk
		if n > hotLeft {
			n = hotLeft
		}
		reg, err := proc.Malloc(n)
		if err != nil {
			return nil, fmt.Errorf("workload %s: hot alloc of %d pages: %w", spec.Name, n, err)
		}
		hotRegions = append(hotRegions, reg)
		hotLeft -= n
	}

	// Self-inflicted fragmentation: free scattered holes (models phase
	// deallocation in the bulk data and churn in the hot structures).
	poke := func(regions []*vm.Region, frac float64) error {
		if frac <= 0 {
			return nil
		}
		for _, reg := range regions {
			holes := int(float64(reg.Pages) * frac)
			for h := 0; h < holes; h++ {
				off := r.Intn(reg.Pages)
				if err := proc.FreePages(reg, off, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := poke(coldRegions, spec.FreeHoles); err != nil {
		return nil, err
	}
	if err := poke(hotRegions, spec.HotHoles); err != nil {
		return nil, err
	}

	w.hot = collectPages(hotRegions)
	w.cold = collectPages(coldRegions)
	if len(w.hot) == 0 {
		return nil, fmt.Errorf("workload %s: empty hot set", spec.Name)
	}
	w.zipf = rng.NewZipf(len(w.hot), spec.ZipfS)
	if len(w.cold) == 0 {
		// Degenerate but legal: treat the hot set as the cold set too.
		w.cold = w.hot
	}
	return w, nil
}

func collectPages(regions []*vm.Region) []arch.VPN {
	var pages []arch.VPN
	for _, reg := range regions {
		for vpn := reg.Base; vpn < reg.End(); vpn++ {
			if reg.Mapped(vpn) {
				pages = append(pages, vpn)
			}
		}
	}
	return pages
}

// Next produces the next memory reference: a full virtual address, the
// write flag, and the instruction gap since the previous reference.
func (w *Workload) Next() (arch.VAddr, bool, int) {
	spec := &w.Spec
	if w.burstLeft > 0 {
		// Continue the spatial burst onto the next mapped page.
		w.burstLeft--
		next := w.cur + 1
		if _, _, ok := w.Proc.Resolve(next); ok {
			w.cur = next
			return w.addr(next), w.r.Bool(spec.WriteFrac), w.gap()
		}
		w.burstLeft = 0
	}
	var vpn arch.VPN
	if w.r.Bool(spec.ColdFrac) {
		if spec.SeqScan {
			vpn = w.cold[w.scanPos]
			w.scanPos = (w.scanPos + 1) % len(w.cold)
		} else {
			vpn = w.cold[w.r.Intn(len(w.cold))]
		}
	} else {
		vpn = w.hot[w.zipf.Draw(w.r)]
	}
	if spec.BurstMean > 1 {
		w.burstLeft = w.r.IntRange(0, 2*(spec.BurstMean-1))
	}
	w.cur = vpn
	return w.addr(vpn), w.r.Bool(spec.WriteFrac), w.gap()
}

// Ref is one decoded memory reference, the unit of the batched hot
// path: a full virtual address, the write flag, the instruction gap
// since the previous reference, and the page table's frame for the
// address's page (0 when the page is not resident).
type Ref struct {
	VA    arch.VAddr
	Write bool
	Gap   int32
	PFN   arch.PFN
}

// NextBatch decodes up to len(dst) references into dst and returns how
// many were produced. Each slot is exactly what a Next call would have
// returned, so batch size can never change the stream.
//
// Decoding consults process residency (burst continuation only follows
// onto mapped pages), and servicing a non-resident reference (swap-in)
// mutates residency. So a batch stops immediately after producing a
// reference to a non-resident page: the caller must service that fault
// before decoding further, exactly as the scalar loop would. All
// references before the last are guaranteed resident at return.
func (w *Workload) NextBatch(dst []Ref) int {
	for i := range dst {
		va, write, gap := w.Next()
		pfn, _, ok := w.Proc.Resolve(va.Page())
		dst[i] = Ref{VA: va, Write: write, Gap: int32(gap), PFN: pfn}
		if !ok {
			return i + 1
		}
	}
	return len(dst)
}

// addr picks an 8-byte-aligned offset within the page so the cache
// model sees realistic line behaviour.
func (w *Workload) addr(vpn arch.VPN) arch.VAddr {
	off := uint64(w.r.Intn(arch.PageSize/8)) * 8
	return vpn.Addr() + arch.VAddr(off)
}

func (w *Workload) gap() int {
	m := w.Spec.InstPerRef
	if m <= 1 {
		return 1
	}
	return w.r.IntRange(1, 2*m-1)
}

// FootprintPages returns the number of currently-mapped workload pages.
func (w *Workload) FootprintPages() int { return len(w.hot) + len(w.cold) }

// Capture records the next n references as a trace, advancing the
// workload's stream (the library form of cmd/tracegen).
func (w *Workload) Capture(n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		va, write, gap := w.Next()
		tr.Append(trace.Record{VAddr: va, Write: write, InstGap: uint32(gap)})
	}
	return tr
}
