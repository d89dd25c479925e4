package cache

import (
	"math/rand"
	"slices"
	"testing"

	"colt/internal/arch"
)

func tiny(next Level) *Cache {
	// 4 sets × 2 ways × 64B = 512B.
	return New(Config{Name: "T", SizeBytes: 512, Ways: 2, HitLatency: 2}, next)
}

func TestMissThenHit(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := tiny(mem)
	if lat := c.Access(0, false); lat != 102 {
		t.Fatalf("cold miss latency = %d, want 102", lat)
	}
	if lat := c.Access(16, false); lat != 2 { // same line
		t.Fatalf("hit latency = %d, want 2", lat)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if mem.Accesses() != 1 {
		t.Fatalf("memory accesses = %d", mem.Accesses())
	}
}

func TestLRUEviction(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := tiny(mem)
	// Three lines mapping to set 0 (stride = sets*64 = 256B).
	a, b, d := arch.PAddr(0), arch.PAddr(256), arch.PAddr(512)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent; b is LRU
	c.Access(d, false) // evicts b
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if lat := c.Access(a, false); lat != 2 {
		t.Fatal("a was evicted but should have been retained")
	}
	if lat := c.Access(b, false); lat == 2 {
		t.Fatal("b should have been evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := tiny(mem)
	c.Access(0, true) // dirty
	c.Access(256, false)
	c.Access(512, false) // evicts dirty line 0
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
	// Clean eviction must not write back.
	c.Access(768, false)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("clean eviction wrote back: %d", c.Stats().Writebacks)
	}
}

func TestResetStats(t *testing.T) {
	c := tiny(&Memory{Latency: 10})
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", SizeBytes: 0, Ways: 2},
		{Name: "x", SizeBytes: 192, Ways: 2},      // 3 lines, not divisible
		{Name: "x", SizeBytes: 1536, Ways: 2},     // 12 sets: not power of two... 1536/64=24/2=12
		{Name: "x", SizeBytes: 32 * 64, Ways: 32}, // more ways than one LRU word holds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, &Memory{})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil next did not panic")
			}
		}()
		New(Config{Name: "x", SizeBytes: 512, Ways: 2}, nil)
	}()
}

func TestHierarchyPaths(t *testing.T) {
	h := DefaultHierarchy()
	// A walk access must bypass L1/L2.
	h.WalkAccess(4096)
	if h.L1.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 {
		t.Fatal("walk access touched L1/L2")
	}
	if h.LLC.Stats().Accesses != 1 {
		t.Fatal("walk access missed LLC")
	}
	// Data access enters at L1 and fills all levels.
	lat1 := h.DataAccess(1<<30, false)
	lat2 := h.DataAccess(1<<30, false)
	if lat2 >= lat1 {
		t.Fatalf("second access not faster: %d vs %d", lat2, lat1)
	}
	if lat2 != 4 {
		t.Fatalf("L1 hit latency = %d", lat2)
	}
	// Cold data access latency = 4+12+30+200.
	if lat1 != 246 {
		t.Fatalf("cold access latency = %d, want 246", lat1)
	}
	if h.Mem.Accesses() != 2 {
		t.Fatalf("memory accesses = %d", h.Mem.Accesses())
	}
	if h.L1.Name() != "L1" || h.L1.Sets() != 64 {
		t.Fatalf("L1 geometry: %s/%d sets", h.L1.Name(), h.L1.Sets())
	}
}

func TestDistinctSetsNoConflict(t *testing.T) {
	c := tiny(&Memory{Latency: 10})
	// Fill all 8 lines (4 sets × 2 ways) with distinct lines; no
	// evictions should occur.
	for set := 0; set < 4; set++ {
		for way := 0; way < 2; way++ {
			c.Access(arch.PAddr(set*64+way*256), false)
		}
	}
	if c.Stats().Evictions != 0 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	// All hit now.
	before := c.Stats().Hits
	for set := 0; set < 4; set++ {
		for way := 0; way < 2; way++ {
			c.Access(arch.PAddr(set*64+way*256), false)
		}
	}
	if c.Stats().Hits != before+8 {
		t.Fatalf("hits = %d, want %d", c.Stats().Hits, before+8)
	}
}

// capture is a terminal Level that records every request and answers
// each with a fixed latency, so a test sees the fills and writeback
// addresses a cache sends down.
type capture struct {
	lat int
	log []LLCEvent
}

func (c *capture) Access(addr arch.PAddr, write bool) int {
	c.log = append(c.log, LLCEvent{Addr: addr, Write: write})
	return c.lat
}

// refLine is one resident line of the reference model.
type refLine struct {
	tag   uint64
	dirty bool
}

// refCache is the reference model: per set, a plain list of resident
// lines kept in MRU-first order, evicting from the tail. It returns
// what a correct write-back LRU cache must do for each access.
type refCache struct {
	sets, ways, hitLat, nextLat int
	lines                       [][]refLine
	stats                       Stats
}

func newRefCache(sets, ways, hitLat, nextLat int) *refCache {
	return &refCache{sets: sets, ways: ways, hitLat: hitLat, nextLat: nextLat, lines: make([][]refLine, sets)}
}

// access applies one access and returns its latency and the requests
// it sends to the next level, in order.
func (r *refCache) access(addr arch.PAddr, write bool) (int, []LLCEvent) {
	line := addr.Line()
	set := int(line % uint64(r.sets))
	tag := line / uint64(r.sets)
	list := r.lines[set]
	for i, l := range list {
		if l.tag == tag {
			r.stats.Hits++
			l.dirty = l.dirty || write
			copy(list[1:i+1], list[:i])
			list[0] = l
			return r.hitLat, nil
		}
	}
	r.stats.Misses++
	out := []LLCEvent{{Addr: addr}}
	if len(list) == r.ways {
		victim := list[len(list)-1]
		list = list[:len(list)-1]
		r.stats.Evictions++
		if victim.dirty {
			r.stats.Writebacks++
			wb := (victim.tag*uint64(r.sets) + uint64(set)) * arch.CacheLineSize
			out = append(out, LLCEvent{Addr: arch.PAddr(wb), Write: true})
		}
	}
	r.lines[set] = append([]refLine{{tag: tag, dirty: write}}, list...)
	return r.hitLat + r.nextLat, out
}

// refOp is one access of a differential run.
type refOp struct {
	addr  arch.PAddr
	write bool
}

// checkVsReference drives ops through a Cache and the reference model
// and fails on the first access whose latency or next-level requests
// differ, or whose counters disagree afterwards.
func checkVsReference(t *testing.T, sets, ways int, ops []refOp) {
	t.Helper()
	const hitLat, nextLat = 1, 10
	next := &capture{lat: nextLat}
	c := New(Config{Name: "ref", SizeBytes: sets * ways * arch.CacheLineSize, Ways: ways, HitLatency: hitLat}, next)
	ref := newRefCache(sets, ways, hitLat, nextLat)
	for i, op := range ops {
		next.log = next.log[:0]
		lat := c.Access(op.addr, op.write)
		wantLat, wantLog := ref.access(op.addr, op.write)
		if lat != wantLat || !slices.Equal(next.log, wantLog) {
			t.Fatalf("sets=%d ways=%d op %d %+v: latency %d, next-level %v; reference %d, %v",
				sets, ways, i, op, lat, next.log, wantLat, wantLog)
		}
		if got, want := c.Stats(), ref.stats; got.Hits != want.Hits || got.Misses != want.Misses ||
			got.Evictions != want.Evictions || got.Writebacks != want.Writebacks || got.Accesses != want.Hits+want.Misses {
			t.Fatalf("sets=%d ways=%d op %d: stats %+v, reference %+v", sets, ways, i, got, want)
		}
	}
}

// TestPropertyVsReferenceModel checks every access's latency, every
// request sent to the next level (fills and writeback addresses) and
// the counters against the plain MRU-list reference model, for each
// supported power-of-two associativity, over mixed reads and writes.
func TestPropertyVsReferenceModel(t *testing.T) {
	const sets = 4
	for _, ways := range []int{1, 2, 4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(17 + ways)))
		// Twice as many distinct lines as the cache holds, so hits,
		// cold misses and evictions all occur.
		lines := 2 * sets * ways
		ops := make([]refOp, 50000)
		for i := range ops {
			line := uint64(rng.Intn(lines))
			ops[i] = refOp{
				addr:  arch.PAddr(line*arch.CacheLineSize + uint64(rng.Intn(arch.CacheLineSize))),
				write: rng.Intn(3) == 0,
			}
		}
		checkVsReference(t, sets, ways, ops)
	}
}

// FuzzCacheVsReference runs arbitrary op streams through the cache
// and the reference model. waysSel picks any associativity from 1 to
// 16; seed picks the set count (1 to 8) and the in-line offsets; each
// op byte is a write flag (bit 0) and a line number (bits 1–7), so 128
// lines contend for at most 128 lines of capacity.
func FuzzCacheVsReference(f *testing.F) {
	f.Add(uint8(3), uint64(0), []byte{0, 2, 4, 6, 8, 0, 10, 3})
	f.Add(uint8(2), uint64(5), []byte{1, 3, 5, 7, 9, 11, 1, 3, 5, 7, 9, 11})
	f.Fuzz(func(t *testing.T, waysSel uint8, seed uint64, stream []byte) {
		ways := int(waysSel%maxWays) + 1
		sets := 1 << (seed % 4)
		ops := make([]refOp, len(stream))
		for i, b := range stream {
			off := (seed>>2 + uint64(i)) % arch.CacheLineSize
			ops[i] = refOp{addr: arch.PAddr(uint64(b>>1)*arch.CacheLineSize + off), write: b&1 != 0}
		}
		checkVsReference(t, sets, ways, ops)
	})
}

// TestTagFieldEdges checks the top of the 31-bit tag field: the
// largest representable tag hits and writes back to its own address,
// and the first address past it panics on its first access, even when
// its set is full and a hit scan cannot match.
func TestTagFieldEdges(t *testing.T) {
	const sets = 4
	next := &capture{}
	c := New(Config{Name: "edge", SizeBytes: sets * 2 * arch.CacheLineSize, Ways: 2, HitLatency: 1}, next)
	maxTag := uint64(tagMask) - 1
	top := arch.PAddr((maxTag*sets + 1) * arch.CacheLineSize) // set 1
	c.Access(0, false)                                        // fill set 0, where the first oversized address maps
	c.Access(arch.PAddr(4*arch.CacheLineSize), false)
	c.Access(top, true)
	if lat := c.Access(top, false); lat != 1 {
		t.Fatalf("largest tag missed on reuse: latency %d", lat)
	}
	c.Access(arch.PAddr(1*arch.CacheLineSize), false)
	next.log = next.log[:0]
	c.Access(arch.PAddr(5*arch.CacheLineSize), false) // evicts top (LRU, dirty)
	if want := (LLCEvent{Addr: top, Write: true}); len(next.log) != 2 || next.log[1] != want {
		t.Fatalf("writeback of the largest tag: %v, want fill then %v", next.log, want)
	}
	for _, addr := range []arch.PAddr{
		arch.PAddr((maxTag + 1) * sets * arch.CacheLineSize),
		arch.PAddr(^uint64(0) &^ (arch.CacheLineSize - 1)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("address %#x past the tag field did not panic", uint64(addr))
				}
			}()
			c.Access(addr, false)
		}()
	}
}
