package cache

import "colt/internal/arch"

// This file implements the shared L1/L2 "front" of the split cache
// hierarchy the batched simulator uses. Every TLB variant translates
// the same reference stream against the same page table, so the
// physical data-access stream entering L1 — and therefore the entire
// L1 and L2 state evolution — is identical across variants; only the
// LLC diverges, because the page walker's PTE fetches enter the
// hierarchy there (§4.1.1) and each variant walks at different times.
// Simulating N private L1/L2 pairs therefore repeats the exact same
// probes N times. The Front runs that shared portion once per
// reference and records the requests L2 would have sent to the LLC;
// a SharedLLC (shared.go) applies the recording once for all
// variants, reproducing each variant's private LLC state and demand
// latency exactly.

// LLCEvent is one L2→LLC request captured by a Front: a demand fill
// (Write false) or an eviction writeback (Write true).
type LLCEvent struct {
	Addr  arch.PAddr
	Write bool
}

// recorder is the terminal Level under the front's L2: it captures
// each request instead of servicing it, contributing zero latency (the
// LLC supplies the latency when the recording is applied).
type recorder struct{ events []LLCEvent }

func (r *recorder) Access(addr arch.PAddr, write bool) int {
	r.events = append(r.events, LLCEvent{Addr: addr, Write: write})
	return 0
}

// Front is the variant-independent L1+L2 pair. It is not safe for
// concurrent use; each job owns one.
type Front struct {
	L1, L2 *Cache
	rec    recorder
}

// NewFront builds the paper-configured L1 and L2 over a recording
// terminal.
func NewFront() *Front {
	f := &Front{}
	f.L2 = New(l2Config(), &f.rec)
	f.L1 = New(l1Config(), f.L2)
	return f
}

// DataAccess services one demand reference through the shared L1/L2
// and returns the latency accumulated down to L2, the LLC-bound
// requests the access generated (valid until the next call), and
// whether the first of them is the demand fill — the only LLC access
// on the reference's critical path. The demand fill, when present, is
// always first: L1's miss path fills from L2 before writing back its
// victim, and L2's miss path fills from the LLC before writing back
// its own, so writeback-induced traffic (which targets evicted lines,
// never the demand line, and whose latency the levels discard) sorts
// strictly after it.
func (f *Front) DataAccess(addr arch.PAddr, write bool) (lat int, events []LLCEvent, demandMiss bool) {
	f.rec.events = f.rec.events[:0]
	lat = f.L1.Access(addr, write)
	events = f.rec.events
	demandMiss = len(events) > 0 && !events[0].Write && events[0].Addr.Line() == addr.Line()
	return lat, events, demandMiss
}
