// Package cache models a multi-level set-associative cache hierarchy
// with LRU replacement. It serves two clients: the workload's data
// references (for the performance model's memory stalls) and the page
// walker's PTE fetches. Following the paper (§4.1.1), PTE fetches enter
// the hierarchy at the last-level cache — "the LLC is the highest cache
// level for page table entries" — so the walker is wired to the LLC
// level directly.
//
// The per-level state is laid out data-oriented rather than as a
// slice of line structs: each line's tag and dirty bit are one uint32
// in a lane blocked by set, so a probe is one load per way over
// adjacent memory, and each set's LRU order is one packed uint64, so
// victim selection is a single load with no scan. This level sits on
// the simulator's per-reference hot path (every data reference and
// every PTE fetch of every TLB variant lands here), so its probe cost
// and its footprint in the host's caches multiply across millions of
// references.
package cache

import (
	"fmt"
	"math/bits"

	"colt/internal/arch"
)

// Level is anything that can service a physical-address access and
// report its latency in cycles.
type Level interface {
	// Access services a read or write of the line containing addr and
	// returns the total latency in cycles.
	Access(addr arch.PAddr, write bool) int
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency int
}

// Stats counts per-level activity. Accesses is derived at snapshot
// time (every access either hits or misses), keeping the hot probe
// path to a single counter update.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Line-metadata encoding. Each line is one uint32 in the tag lane: the
// low 31 bits hold the line's tag plus one, the top bit its dirty bit.
// A stored 0 therefore means "never filled", i.e. invalid, so `make`
// yields an all-invalid cache and the hit scan needs no separate valid
// check — lines are only ever filled, never invalidated, so the
// encoding is stable. A 16-way set's tags fill one 64-byte host cache
// line.
//
// Recency lives beside the tags, one uint64 per set: a permutation of
// the set's way numbers, four bits per way, ordered from the LRU end
// (nibble 0) to the MRU end (nibble ways-1); nibbles at and above ways
// stay zero. A hit rotates its way to the MRU end, and a miss fills
// the way in nibble 0 and rotates it there. Invalid ways are never
// touched until they are filled, so they stay at the LRU end in
// ascending way order, and nibble 0 is exactly "the first invalid
// way, else the least recently used" (DESIGN.md §16).
const (
	dirtyBit uint32 = 1 << 31
	tagMask  uint32 = dirtyBit - 1
	// maxWays is the most ways a nibble-per-way permutation holds in
	// one uint64.
	maxWays = 16
	// nibbleOnes and nibbleHighs are the per-nibble constants of the
	// zero-nibble search in touch.
	nibbleOnes  uint64 = 0x1111111111111111
	nibbleHighs uint64 = 0x8888888888888888
	// identityLRU is the initial permutation: way i in nibble i.
	identityLRU uint64 = 0xFEDCBA9876543210
)

// Cache is one set-associative level backed by a lower Level. Line
// metadata is a tag lane blocked by set plus one recency word per set
// (see the encoding above), so a probe scans ways adjacent uint32s and
// victim selection reads a single word.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint // log2(sets), precomputed off the probe path
	ways     int
	mruShift uint // 4*(ways-1): the bit offset of the MRU nibble
	hitLat   int

	// tags holds, for each set s, the block tags[s*ways : (s+1)*ways]:
	// one (tag+1)|dirty word per way, 0 when the way is invalid.
	tags []uint32
	// lru holds one way permutation per set, LRU nibble first.
	lru []uint64

	next Level
	// Devirtualized next-level pointers: the common chain is
	// Cache→Cache→Cache→Memory, so the miss path can skip the
	// interface dispatch. next is kept as the fallback for custom
	// Level implementations.
	nextCache *Cache
	nextMem   *Memory

	stats Stats
}

// New builds a cache level on top of next. Size must be a multiple of
// ways × line size, ways must be at most 16, and the set count must be
// a power of two.
func New(cfg Config, next Level) *Cache {
	if next == nil {
		panic("cache: nil next level")
	}
	linesTotal := cfg.SizeBytes / arch.CacheLineSize
	if linesTotal <= 0 || cfg.Ways <= 0 || cfg.Ways > maxWays || linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", cfg.Name, cfg.SizeBytes, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	c := newSparse(cfg, sets, next)
	c.tags = make([]uint32, linesTotal)
	c.lru = make([]uint64, sets)
	// The unused high nibbles must read zero: touch shifts them down
	// into the permutation.
	identity := identityLRU & (^uint64(0) >> (64 - 4*uint(cfg.Ways)))
	for s := range c.lru {
		c.lru[s] = identity
	}
	return c
}

// newSparse builds a level with New's geometry but no sets stored: a
// variant's private LLC copy (shared.go) appends the sets it forks,
// each at the next free slot.
func newSparse(cfg Config, sets int, next Level) *Cache {
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uintLog2(sets),
		ways:     cfg.Ways,
		mruShift: 4 * uint(cfg.Ways-1),
		hitLat:   cfg.HitLatency,
		next:     next,
	}
	switch n := next.(type) {
	case *Cache:
		c.nextCache = n
	case *Memory:
		c.nextMem = n
	}
	return c
}

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = s.Hits + s.Misses
	return s
}

// ResetStats zeroes the counters (e.g. after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// fill services a miss from the next level (devirtualized when the
// chain is the standard Cache/Memory stack).
func (c *Cache) fill(addr arch.PAddr, write bool) int {
	if c.nextCache != nil {
		return c.nextCache.Access(addr, write)
	}
	if c.nextMem != nil {
		return c.nextMem.Access(addr, write)
	}
	return c.next.Access(addr, write)
}

// setOf returns the set addr maps to.
func (c *Cache) setOf(addr arch.PAddr) int { return int(addr.Line()) & (c.sets - 1) }

// Access implements Level.
func (c *Cache) Access(addr arch.PAddr, write bool) int {
	return c.accessAt(c.setOf(addr), addr, write)
}

// accessAt services an access to addr's set stored at slot, i.e. in
// tags[slot*ways:] and lru[slot]. A full cache stores set s at slot s;
// a sparse copy (newSparse) stores its sets in the order it took them.
func (c *Cache) accessAt(slot int, addr arch.PAddr, write bool) int {
	// key is the stored form of the tag. It is compared in 64 bits so
	// a tag too wide for the lane can never hit; miss rejects it.
	key := addr.Line()>>c.setShift + 1
	block := slot * c.ways

	// Hit scan: one load and masked compare per way over the set's
	// contiguous tag words (invalid ways hold 0, which no key equals).
	lane := c.tags[block : block+c.ways]
	for j, w := range lane {
		if uint64(w&tagMask) == key {
			c.stats.Hits++
			if write {
				lane[j] = w | dirtyBit
			}
			c.touch(slot, j)
			return c.hitLat
		}
	}
	return c.miss(addr, write, block, slot, key)
}

// touch moves way to the MRU end of the permutation at slot. The common
// case, a hit on the MRU way, is a no-op. Otherwise the way's nibble
// is found with the zero-nibble trick: XOR with way in every nibble
// zeroes exactly the matching nibbles, and the lowest zero nibble of x
// is the lowest set bit of (x-ones) &^ x & highs (a borrow can only
// flag nibbles above a true zero). Unused high nibbles XOR to way and
// read as zero for way 0, but way 0 always sits lower, so they never
// win.
func (c *Cache) touch(slot, way int) {
	perm := c.lru[slot]
	if perm>>c.mruShift == uint64(way) {
		return
	}
	x := perm ^ uint64(way)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	c.lru[slot] = perm&(1<<p-1) | perm>>(p+4)<<p | uint64(way)<<c.mruShift
}

// miss services a demand miss: the victim is the permutation's LRU
// nibble, rotated to the MRU end; then the next-level fill and the
// writeback accounting.
func (c *Cache) miss(addr arch.PAddr, write bool, block, slot int, key uint64) int {
	if key > uint64(tagMask) {
		panic(fmt.Sprintf("cache %s: physical address %#x exceeds the 31-bit tag field", c.cfg.Name, uint64(addr)))
	}
	c.stats.Misses++
	perm := c.lru[slot]
	vi := int(perm & 0xF)
	c.lru[slot] = perm>>4 | uint64(vi)<<c.mruShift

	lat := c.hitLat + c.fill(addr, false)
	if vt := c.tags[block+vi]; vt != 0 {
		c.stats.Evictions++
		if vt&dirtyBit != 0 {
			c.stats.Writebacks++
			// Writebacks happen off the critical path; count but do not
			// add latency.
			wbAddr := arch.PAddr(((uint64(vt&tagMask)-1)<<c.setShift | uint64(c.setOf(addr))) * arch.CacheLineSize)
			c.fill(wbAddr, true)
		}
	}
	t := uint32(key)
	if write {
		t |= dirtyBit
	}
	c.tags[block+vi] = t
	return lat
}

func uintLog2(n int) uint {
	var k uint
	for 1<<k < n {
		k++
	}
	return k
}

// Memory is the terminal Level with a flat access latency.
type Memory struct {
	Latency  int
	accesses uint64
}

// Access implements Level.
func (m *Memory) Access(arch.PAddr, bool) int {
	m.accesses++
	return m.Latency
}

// Accesses returns the number of memory accesses serviced.
func (m *Memory) Accesses() uint64 { return m.accesses }

// Hierarchy bundles the three-level configuration the paper simulates
// (32 KB L1 / 256 KB L2 / 4 MB LLC, Intel Core i7-like).
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Mem *Memory
}

// The paper's level geometries (32 KB L1 / 256 KB L2 / 4 MB LLC,
// Intel Core i7-like) and memory latency, shared by DefaultHierarchy,
// NewFront and NewSharedLLC so the split front/shared-LLC wiring
// simulates the same machine.
func l1Config() Config  { return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4} }
func l2Config() Config  { return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 12} }
func llcConfig() Config { return Config{Name: "LLC", SizeBytes: 4 << 20, Ways: 16, HitLatency: 30} }

// memLatency is the paper's memory latency in cycles, below the LLC.
const memLatency = 200

// DefaultHierarchy builds the paper's cache configuration.
func DefaultHierarchy() *Hierarchy {
	mem := &Memory{Latency: memLatency}
	h := &Hierarchy{LLC: New(llcConfig(), mem), Mem: mem}
	h.L2 = New(l2Config(), h.LLC)
	h.L1 = New(l1Config(), h.L2)
	return h
}

// DataAccess services a demand data reference from the core (enters at
// L1) and returns its latency.
func (h *Hierarchy) DataAccess(addr arch.PAddr, write bool) int {
	return h.L1.Access(addr, write)
}

// WalkAccess services a page-walker PTE fetch, which enters at the LLC
// (paper §4.1.1), and returns its latency.
func (h *Hierarchy) WalkAccess(addr arch.PAddr) int {
	return h.LLC.Access(addr, false)
}
