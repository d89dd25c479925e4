package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"colt/internal/arch"
)

// refEntry is one way of the reference set-associative TLB, a CoLT-SA
// entry as §4.1.3 describes it: a tag, one valid bit per translation
// of the aligned coalescing block, the frame of the first valid one,
// and one attribute set.
type refEntry struct {
	valid bool
	tag   uint64
	vbits uint8
	base  arch.PFN
	attr  arch.Attr
}

// refSATLB is the reference model for SetAssocTLB: set×way arrays, an
// explicit per-set recency order of way numbers (LRU first) and plain
// counters. An invalidated way keeps its place in the order, so the
// victim is the first invalid way in recency order (never-filled ways
// start in way order), else the least recently used.
type refSATLB struct {
	sets, ways int
	shift      uint
	entries    [][]refEntry
	order      [][]int
	stats      TLBStats
}

func newRefSATLB(sets, ways int, shift uint) *refSATLB {
	r := &refSATLB{sets: sets, ways: ways, shift: shift}
	r.entries = make([][]refEntry, sets)
	r.order = make([][]int, sets)
	for s := range r.entries {
		r.entries[s] = make([]refEntry, ways)
		for w := 0; w < ways; w++ {
			r.order[s] = append(r.order[s], w)
		}
	}
	return r
}

func (r *refSATLB) index(vpn arch.VPN) (set int, tag uint64, off uint) {
	block := uint64(vpn) >> r.shift
	return int(block % uint64(r.sets)), block / uint64(r.sets), uint(uint64(vpn) % (1 << r.shift))
}

// touch moves way w of set to the MRU end.
func (r *refSATLB) touch(set, w int) {
	o := r.order[set]
	for i, x := range o {
		if x == w {
			copy(o[i:], o[i+1:])
			o[len(o)-1] = w
			return
		}
	}
}

// run rebuilds the run entry w of set holds.
func (r *refSATLB) run(set, w int) Run {
	e := r.entries[set][w]
	block := e.tag*uint64(r.sets) + uint64(set)
	return Run{
		BaseVPN: arch.VPN(block<<r.shift) + arch.VPN(bits.TrailingZeros8(e.vbits)),
		BasePFN: e.base,
		Len:     bits.OnesCount8(e.vbits),
		Attr:    e.attr,
	}
}

// find returns the first way, in way order, that translates vpn.
func (r *refSATLB) find(vpn arch.VPN) (set, way int) {
	set, tag, off := r.index(vpn)
	for w, e := range r.entries[set] {
		if e.valid && e.tag == tag && e.vbits&(1<<off) != 0 {
			return set, w
		}
	}
	return set, -1
}

func (r *refSATLB) lookup(vpn arch.VPN) (arch.PFN, Run, bool) {
	set, w := r.find(vpn)
	if w < 0 {
		r.stats.Misses++
		return 0, Run{}, false
	}
	r.stats.Hits++
	r.touch(set, w)
	e := r.entries[set][w]
	_, _, off := r.index(vpn)
	pfn := e.base + arch.PFN(bits.OnesCount8(e.vbits&(1<<off-1)))
	return pfn, r.run(set, w), true
}

func (r *refSATLB) insert(run Run) (Run, bool) {
	set, tag, off := r.index(run.BaseVPN)
	vbits := uint8(1<<run.Len-1) << off
	r.stats.Fills++
	r.stats.CoalescedIn += uint64(run.Len - 1)
	fill := refEntry{valid: true, tag: tag, vbits: vbits, base: run.BasePFN, attr: run.Attr}
	// A resident entry of the same block overlapping the run is
	// replaced in place: the first such way in way order.
	for w, e := range r.entries[set] {
		if e.valid && e.tag == tag && e.vbits&vbits != 0 {
			r.entries[set][w] = fill
			r.touch(set, w)
			return Run{}, false
		}
	}
	victim := r.order[set][0]
	for _, w := range r.order[set] {
		if !r.entries[set][w].valid {
			victim = w
			break
		}
	}
	var evicted Run
	was := r.entries[set][victim].valid
	if was {
		r.stats.Evictions++
		evicted = r.run(set, victim)
	}
	r.entries[set][victim] = fill
	r.touch(set, victim)
	return evicted, was
}

// invalidate drops every entry translating vpn.
func (r *refSATLB) invalidate(vpn arch.VPN) bool {
	set, tag, off := r.index(vpn)
	removed := false
	for w := range r.entries[set] {
		if e := &r.entries[set][w]; e.valid && e.tag == tag && e.vbits&(1<<off) != 0 {
			e.valid = false
			r.stats.Invalidates++
			removed = true
		}
	}
	return removed
}

func (r *refSATLB) invalidateAll() {
	for s := range r.entries {
		for w := range r.entries[s] {
			r.entries[s][w].valid = false
		}
	}
	r.stats.Invalidates++
}

// runs lists the valid entries' runs in entry order, as EachRun does.
func (r *refSATLB) runs() []Run {
	var out []Run
	for s := range r.entries {
		for w, e := range r.entries[s] {
			if e.valid {
				out = append(out, r.run(s, w))
			}
		}
	}
	return out
}

// checkSATLBVsReference decodes ops and runs them through a
// SetAssocTLB and the reference model, failing on the first
// operation whose outcome (hit or miss, frame, run, eviction) differs
// or after which any counter differs, and on any difference in the
// resident runs at the end. Each op is a kind byte and a VPN byte; the
// kind byte's top three bits choose the operation and its low five
// bits give a run or range length:
//
//	0 Lookup, 1 lookupWithRun, 2 and 7 Insert, 3 InsertDiscard,
//	4 Invalidate, 5 invalidateRange over 1–32 pages, 6 InvalidateAll.
func checkSATLBVsReference(t *testing.T, sets, ways int, shift uint, ops []byte) {
	t.Helper()
	tlb := NewSetAssocTLB(sets, ways, shift)
	ref := newRefSATLB(sets, ways, shift)
	for i := 0; i+1 < len(ops); i += 2 {
		kind, arg, vpn := ops[i]>>5, int(ops[i]&31), arch.VPN(ops[i+1])
		// A run within vpn's aligned coalescing block.
		off := int(vpn) & (1<<shift - 1)
		run := Run{BaseVPN: vpn, BasePFN: arch.PFN(vpn)*5 + arch.PFN(arg), Len: 1 + arg%(1<<shift-off), Attr: testAttr}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("sets=%d ways=%d shift=%d op %d (kind %d, vpn %d, arg %d): "+format,
				append([]any{sets, ways, shift, i / 2, kind, vpn, arg}, args...)...)
		}
		switch kind {
		case 0:
			pfn, ok := tlb.Lookup(vpn)
			if wpfn, _, wok := ref.lookup(vpn); ok != wok || pfn != wpfn {
				fail("Lookup = %d,%v, reference %d,%v", pfn, ok, wpfn, wok)
			}
		case 1:
			pfn, run, ok := tlb.lookupWithRun(vpn)
			if wpfn, wrun, wok := ref.lookup(vpn); ok != wok || pfn != wpfn || run != wrun {
				fail("lookupWithRun = %d,%+v,%v, reference %d,%+v,%v", pfn, run, ok, wpfn, wrun, wok)
			}
		case 2, 7:
			ev, was := tlb.Insert(run)
			if wev, wwas := ref.insert(run); was != wwas || ev != wev {
				fail("Insert(%+v) evicted %+v,%v, reference %+v,%v", run, ev, was, wev, wwas)
			}
		case 3:
			tlb.InsertDiscard(run)
			ref.insert(run)
		case 4:
			if got, want := tlb.Invalidate(vpn), ref.invalidate(vpn); got != want {
				fail("Invalidate = %v, reference %v", got, want)
			}
		case 5:
			end := vpn + arch.VPN(arg) + 1
			tlb.invalidateRange(vpn, end)
			for v := vpn; v < end; v++ {
				ref.invalidate(v)
			}
		case 6:
			tlb.InvalidateAll()
			ref.invalidateAll()
		}
		want := ref.stats
		want.Lookups = want.Hits + want.Misses
		if got := tlb.Stats(); got != want {
			fail("stats %+v, reference %+v", got, want)
		}
	}
	var got []Run
	tlb.EachRun(func(r Run) { got = append(got, r) })
	want := ref.runs()
	if len(got) != len(want) || tlb.Occupied() != len(want) {
		t.Fatalf("sets=%d ways=%d shift=%d: %d resident runs (Occupied %d), reference %d",
			sets, ways, shift, len(got), tlb.Occupied(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sets=%d ways=%d shift=%d: resident run %d = %+v, reference %+v", sets, ways, shift, i, got[i], want[i])
		}
	}
}

// TestSetAssocTLBVsReferenceRandom runs long random op streams
// through checkSATLBVsReference at every shift and at several
// geometries.
func TestSetAssocTLBVsReferenceRandom(t *testing.T) {
	for shift := uint(0); shift <= MaxSAShift; shift++ {
		for _, g := range []struct{ sets, ways int }{{1, 1}, {1, 4}, {2, 2}, {4, 3}, {8, 4}} {
			rng := rand.New(rand.NewSource(int64(shift)*100 + int64(g.sets*10+g.ways)))
			ops := make([]byte, 8000)
			for i := 0; i < len(ops); i += 2 {
				// Invalidations and flushes are rarer than lookups and
				// fills, so the TLB stays populated.
				kind := [...]byte{0, 0, 1, 1, 2, 2, 7, 3, 4, 5}[rng.Intn(10)]
				if rng.Intn(400) == 0 {
					kind = 6
				}
				ops[i] = kind<<5 | byte(rng.Intn(32))
				ops[i+1] = byte(rng.Intn(64 << shift))
			}
			checkSATLBVsReference(t, g.sets, g.ways, shift, ops)
		}
	}
}

// FuzzSetAssocTLBVsReference runs arbitrary op streams (see
// checkSATLBVsReference) through SetAssocTLB and the reference model.
// shiftSel picks the shift (0–3); geom picks the set count (1, 2 or
// 4, bits 0–1) and the associativity (1–4, bits 2–3). VPNs are one
// byte, so at most 256 pages contend for at most 16 entries.
func FuzzSetAssocTLBVsReference(f *testing.F) {
	f.Add(uint8(2), uint8(0x05), []byte{0x43, 0x10, 0x00, 0x11, 0x20, 0x12, 0x41, 0x30, 0x80, 0x11, 0x00, 0x12})
	f.Add(uint8(0), uint8(0x00), []byte{0x40, 0x01, 0x40, 0x02, 0x00, 0x01, 0xc0, 0x00, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, shiftSel, geom uint8, ops []byte) {
		sets := 1 << (geom & 3 % 3)
		ways := int(geom>>2&3) + 1
		checkSATLBVsReference(t, sets, ways, uint(shiftSel%(MaxSAShift+1)), ops)
	})
}
