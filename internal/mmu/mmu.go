// Package mmu models the hardware page-table walker: on a last-level
// TLB miss it walks the four-level radix page table, fetching PTEs
// through the cache hierarchy (entering at the LLC, per the paper), and
// accelerates upper levels with a small MMU page-walk cache — the
// paper's "more realistic TLB hierarchy with 22-entry MMU caches"
// (§5.2.1). The walker also hands back the eight translations sharing
// the leaf PTE's cache line, which is the raw material for CoLT's
// coalescing logic.
package mmu

import (
	"colt/internal/arch"
	"colt/internal/pagetable"
)

// DefaultWalkCacheEntries matches the paper's 22-entry MMU cache.
const DefaultWalkCacheEntries = 22

// walkCacheHitLatency is the cycles to read one cached upper-level
// entry instead of fetching it from the memory hierarchy.
const walkCacheHitLatency = 1

// WalkCache is a small fully-associative LRU cache over upper-level
// page-table entries, keyed by the entry's physical address (which is
// uniquely determined by the virtual-address prefix it translates).
// At its paper-sized 22 entries a linear scan over a contiguous
// address lane beats a hash map on every operation, so the entries
// live in parallel addr/recency slices rather than a map. Replacement
// is exact LRU: ticks are unique, so the minimum-tick victim is the
// same entry the map-based implementation evicted.
type WalkCache struct {
	capacity int
	tick     uint64
	addrs    []arch.PAddr // resident entry addresses, first n valid
	ticks    []uint64     // last-use tick per entry
	n        int
	hits     uint64
	misses   uint64
}

// NewWalkCache creates a cache holding up to capacity entries; a
// capacity of 0 disables caching (every level goes to memory).
func NewWalkCache(capacity int) *WalkCache {
	return &WalkCache{
		capacity: capacity,
		addrs:    make([]arch.PAddr, capacity),
		ticks:    make([]uint64, capacity),
	}
}

// Lookup reports whether addr is cached, updating recency.
func (w *WalkCache) Lookup(addr arch.PAddr) bool {
	w.tick++
	addrs := w.addrs[:w.n]
	for i := range addrs {
		if addrs[i] == addr {
			w.ticks[i] = w.tick
			w.hits++
			return true
		}
	}
	w.misses++
	return false
}

// Insert caches addr, evicting the LRU entry if full.
func (w *WalkCache) Insert(addr arch.PAddr) {
	if w.capacity == 0 {
		return
	}
	w.tick++
	for i := 0; i < w.n; i++ {
		if w.addrs[i] == addr {
			w.ticks[i] = w.tick
			return
		}
	}
	w.place(addr)
}

// insertMissed caches addr that the caller has just probed and missed
// (the walker inserts only after a failed Lookup of the same address),
// skipping Insert's residency-refresh scan. Tick accounting matches
// Insert exactly.
func (w *WalkCache) insertMissed(addr arch.PAddr) {
	if w.capacity == 0 {
		return
	}
	w.tick++
	w.place(addr)
}

// place stores addr in a free slot or over the exact-LRU victim.
func (w *WalkCache) place(addr arch.PAddr) {
	if w.n < w.capacity {
		w.addrs[w.n] = addr
		w.ticks[w.n] = w.tick
		w.n++
		return
	}
	victim := 0
	for i := 1; i < w.n; i++ {
		if w.ticks[i] < w.ticks[victim] {
			victim = i
		}
	}
	w.addrs[victim] = addr
	w.ticks[victim] = w.tick
}

// Flush empties the cache (TLB shootdown side effect).
func (w *WalkCache) Flush() { w.n = 0 }

// Hits and Misses report lookup counters.
func (w *WalkCache) Hits() uint64   { return w.hits }
func (w *WalkCache) Misses() uint64 { return w.misses }

// Len returns the number of resident entries.
func (w *WalkCache) Len() int { return w.n }

// WalkInfo is the result of one page walk.
type WalkInfo struct {
	Found bool
	PTE   arch.PTE
	// Latency is the serialized walk cost in cycles.
	Latency int
	// Line holds the eight translations of the leaf PTE's cache line
	// when HasLine is true (base-page walks only).
	Line    [arch.PTEsPerLine]arch.Translation
	HasLine bool
	// LineAddr is the physical address of that cache line.
	LineAddr arch.PAddr
}

// WalkerStats counts walker activity.
type WalkerStats struct {
	Walks        uint64
	Failed       uint64
	TotalLatency uint64
	LevelFetches uint64 // PTE fetches that went to the memory hierarchy
	PWCHits      uint64 // upper-level fetches short-circuited by the MMU cache
}

// PTEMemory services the walker's PTE fetches, which enter the cache
// hierarchy at the LLC (§4.1.1): a cache.Hierarchy, or one TLB
// variant's cache.LLCView of an LLC the variants share.
type PTEMemory interface {
	WalkAccess(addr arch.PAddr) int
}

// Walker performs page walks for one process's page table.
type Walker struct {
	table *pagetable.Table
	mem   PTEMemory
	pwc   *WalkCache
	stats WalkerStats
}

// NewWalker builds a walker over table using mem for PTE fetches. pwc
// may be nil to disable the MMU cache.
func NewWalker(table *pagetable.Table, mem PTEMemory, pwc *WalkCache) *Walker {
	if pwc == nil {
		pwc = NewWalkCache(0)
	}
	return &Walker{table: table, mem: mem, pwc: pwc}
}

// SetTable points the walker at a different process's page table
// (context switch).
func (w *Walker) SetTable(table *pagetable.Table) {
	w.table = table
	w.pwc.Flush()
}

// Table returns the current page table.
func (w *Walker) Table() *pagetable.Table { return w.table }

// Stats returns a snapshot of walker counters.
func (w *Walker) Stats() WalkerStats { return w.stats }

// Flush empties the MMU walk cache (shootdown).
func (w *Walker) Flush() { w.pwc.Flush() }

// Walk translates vpn, charging the serialized latency of each level's
// PTE fetch. Upper (non-leaf) levels may hit the MMU walk cache; the
// leaf fetch always goes to the memory hierarchy, and its cache line of
// eight PTEs is returned for coalescing.
func (w *Walker) Walk(vpn arch.VPN) WalkInfo {
	var info WalkInfo
	w.WalkInto(vpn, &info)
	return info
}

// WalkInto is Walk with a caller-provided result buffer: WalkInfo
// embeds the leaf PTE's whole cache line, so returning it by value
// costs two ~200-byte copies per page walk. The simulator's hot path
// reuses one buffer per hierarchy instead.
func (w *Walker) WalkInto(vpn arch.VPN, info *WalkInfo) {
	w.stats.Walks++
	res := w.table.WalkRef(vpn)
	// Reset the scalar fields individually: a whole-struct assignment
	// would zero the ~200-byte Line array per walk, which is pure waste
	// since Line is only read when HasLine reports a fresh fill below.
	info.Found = res.Found
	info.PTE = res.PTE
	info.Latency = 0
	info.HasLine = false
	info.LineAddr = 0
	for i := 0; i < res.Depth; i++ {
		addr := res.Levels[i]
		leaf := i == res.Depth-1
		if !leaf && w.pwc.Lookup(addr) {
			info.Latency += walkCacheHitLatency
			w.stats.PWCHits++
			continue
		}
		info.Latency += w.mem.WalkAccess(addr)
		w.stats.LevelFetches++
		if !leaf {
			w.pwc.insertMissed(addr)
		}
	}
	if !res.Found {
		w.stats.Failed++
	} else if !res.PTE.Huge {
		if lineAddr, ok := w.table.LineFromWalk(res, vpn, &info.Line); ok {
			info.HasLine = true
			info.LineAddr = lineAddr
		}
	}
	w.stats.TotalLatency += uint64(info.Latency)
}
