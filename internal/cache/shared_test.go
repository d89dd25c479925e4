package cache

import (
	"math/rand"
	"slices"
	"testing"

	"colt/internal/arch"
)

// sharedRef is one reference of a shared-LLC differential run: each
// variant's PTE fetches, then the front's LLC-bound requests, with
// demand reporting that events[0] is the demand fill.
type sharedRef struct {
	fetches [][]arch.PAddr // indexed by variant
	events  []LLCEvent
	demand  bool
}

const sharedMemLat = 100

// checkSharedVsPrivate drives batches through a SharedLLC with nv
// views and, as the reference, through nv independent Caches of the
// same geometry, each fed its variant's PTE fetches and every front
// request in stream order. It fails on the first PTE fetch or
// reference whose latency differs, or if any variant's set differs at
// the end, and returns the views.
func checkSharedVsPrivate(t *testing.T, cfg Config, nv int, batches [][]sharedRef) []*LLCView {
	t.Helper()
	s := newSharedLLC(cfg, sharedMemLat)
	views := make([]*LLCView, nv)
	private := make([]*Cache, nv)
	for i := range views {
		views[i] = s.NewView()
		private[i] = New(cfg, &Memory{Latency: sharedMemLat})
	}
	for bi, batch := range batches {
		s.Begin()
		for _, r := range batch {
			s.Apply(r.events, r.demand)
		}
		// Variant-major, as the engine runs a batch.
		for vi, v := range views {
			p := private[vi]
			for k, r := range batch {
				if vi < len(r.fetches) {
					for _, a := range r.fetches[vi] {
						if got, want := v.WalkAccess(a), p.Access(a, false); got != want {
							t.Fatalf("batch %d ref %d variant %d: PTE fetch %#x latency %d, private LLC %d",
								bi, k, vi, uint64(a), got, want)
						}
					}
				}
				want := 0
				for i, e := range r.events {
					if lat := p.Access(e.Addr, e.Write); i == 0 && r.demand {
						want = lat
					}
				}
				if got := v.Next(); got != want {
					t.Fatalf("batch %d ref %d variant %d: LLC latency %d, private LLC %d", bi, k, vi, got, want)
				}
			}
		}
	}
	for vi, v := range views {
		p := private[vi]
		for set := 0; set < p.sets; set++ {
			tags, lru := viewSet(v, set)
			if !slices.Equal(tags, p.tags[set*p.ways:(set+1)*p.ways]) || lru != p.lru[set] {
				t.Fatalf("variant %d set %d: tags %x lru %#x, private LLC %x %#x",
					vi, set, tags, lru, p.tags[set*p.ways:(set+1)*p.ways], p.lru[set])
			}
		}
	}
	return views
}

// viewSet returns set's tag words and LRU word as the view sees them.
func viewSet(v *LLCView, set int) ([]uint32, uint64) {
	c, slot := v.s.shared, set
	if v.slot[set] != 0 {
		c, slot = v.own, int(v.slot[set]-1)
	}
	return c.tags[slot*c.ways : (slot+1)*c.ways], c.lru[slot]
}

// tinyLLC is 2 sets × 2 ways: line n maps to set n%2.
func tinyLLC() Config {
	return Config{Name: "T", SizeBytes: 4 * arch.CacheLineSize, Ways: 2, HitLatency: 1}
}

func line(n uint64) arch.PAddr { return arch.PAddr(n * arch.CacheLineSize) }

func rd(n uint64) LLCEvent { return LLCEvent{Addr: line(n)} }
func wb(n uint64) LLCEvent { return LLCEvent{Addr: line(n), Write: true} }

// TestSharedLLCForkCases pins the fork paths by name: each case's
// latencies and final sets must match private LLCs, and each case
// must fork the sets it names.
func TestSharedLLCForkCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nv      int
		batches [][]sharedRef
		forks   []int // per variant, at the end
	}{
		{
			// Set 0 takes requests before and after variant 1's first
			// fetch into it, all in one batch: the fork must start from
			// the set as the batch found it and replay refs 0 and 1.
			name: "fork-mid-batch",
			nv:   2,
			batches: [][]sharedRef{
				{{events: []LLCEvent{rd(0)}, demand: true}},
				{
					{events: []LLCEvent{rd(2), wb(0)}, demand: true},
					{events: []LLCEvent{rd(4)}, demand: true},
					{fetches: [][]arch.PAddr{nil, {line(6)}}, events: []LLCEvent{rd(2)}, demand: true},
					{events: []LLCEvent{rd(0), wb(2)}, demand: true},
				},
			},
			forks: []int{0, 1},
		},
		{
			// Every variant forks set 1, at different references of two
			// batches, with requests to set 1 in between.
			name: "forked-by-every-variant",
			nv:   4,
			batches: [][]sharedRef{
				{
					{fetches: [][]arch.PAddr{{line(1)}}, events: []LLCEvent{rd(3)}, demand: true},
					{events: []LLCEvent{rd(5), wb(3)}, demand: true},
					{fetches: [][]arch.PAddr{nil, {line(7)}}},
				},
				{
					{events: []LLCEvent{rd(1)}, demand: true},
					{fetches: [][]arch.PAddr{nil, nil, {line(3)}, {line(9)}}, events: []LLCEvent{rd(7)}, demand: true},
				},
			},
			forks: []int{1, 1, 1, 1},
		},
		{
			// Variants 0 and 2 fork set 0 in the same batch, at refs 1
			// and 3; variant 1 only ever reads the shared set.
			name: "forked-twice-in-one-batch",
			nv:   3,
			batches: [][]sharedRef{
				{
					{events: []LLCEvent{rd(0), wb(2)}, demand: true},
					{fetches: [][]arch.PAddr{{line(4)}}, events: []LLCEvent{rd(2)}, demand: true},
					{events: []LLCEvent{wb(6)}},
					{fetches: [][]arch.PAddr{nil, nil, {line(0), line(8)}}, events: []LLCEvent{rd(4)}, demand: true},
					{events: []LLCEvent{rd(0)}, demand: true},
				},
			},
			forks: []int{1, 0, 1},
		},
		{
			// A fetch into a set the batch has not touched copies the
			// shared set as it stands, with nothing to replay.
			name: "fork-untouched-set",
			nv:   2,
			batches: [][]sharedRef{
				{{events: []LLCEvent{rd(1), rd(3)}, demand: true}},
				{
					{events: []LLCEvent{rd(0)}, demand: true},
					{fetches: [][]arch.PAddr{{line(5)}, {line(1)}}, events: []LLCEvent{rd(3)}, demand: true},
				},
			},
			forks: []int{1, 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := checkSharedVsPrivate(t, tinyLLC(), tc.nv, tc.batches)
			for vi, v := range views {
				if v.Forks() != tc.forks[vi] {
					t.Errorf("variant %d forked %d sets, want %d", vi, v.Forks(), tc.forks[vi])
				}
			}
		})
	}
}

// TestSharedLLCPropertyVsPrivate runs random interleavings of
// per-variant PTE fetches and front reads and writebacks, in random
// batch sizes, at several geometries and variant counts, including
// more views than a refSpan mask has bits.
func TestSharedLLCPropertyVsPrivate(t *testing.T) {
	for _, g := range []struct{ sets, ways, nv int }{{1, 1, 2}, {2, 2, 4}, {4, 4, 3}, {8, 16, 4}, {4, 2, 66}} {
		rng := rand.New(rand.NewSource(int64(g.sets*100 + g.ways*10 + g.nv)))
		cfg := Config{Name: "P", SizeBytes: g.sets * g.ways * arch.CacheLineSize, Ways: g.ways, HitLatency: 1}
		// Three times as many distinct lines as the cache holds.
		lines := 3 * g.sets * g.ways
		var batches [][]sharedRef
		for b := 0; b < 300; b++ {
			batch := make([]sharedRef, 1+rng.Intn(24))
			for k := range batch {
				r := &batch[k]
				r.fetches = make([][]arch.PAddr, g.nv)
				for vi := range r.fetches {
					// PTE fetches are rarer than front requests.
					for rng.Intn(6) == 0 {
						r.fetches[vi] = append(r.fetches[vi], line(uint64(rng.Intn(lines))))
					}
				}
				if rng.Intn(2) == 0 {
					r.events = append(r.events, rd(uint64(rng.Intn(lines))))
					r.demand = rng.Intn(4) != 0
				}
				for rng.Intn(3) == 0 {
					r.events = append(r.events, wb(uint64(rng.Intn(lines))))
				}
			}
			batches = append(batches, batch)
		}
		views := checkSharedVsPrivate(t, cfg, g.nv, batches)
		for vi, v := range views {
			if v.Forks() == 0 {
				t.Errorf("sets=%d ways=%d: variant %d never forked", g.sets, g.ways, vi)
			}
		}
	}
}

// FuzzSharedLLCVsPrivate decodes an op stream into batches and checks
// it against private LLCs. sel picks the variant count (1–4, bits
// 0–1), the associativity (1–4, bits 2–3) and the set count (1, 2 or
// 4, bits 4–5). Each op byte is a kind (top two bits) and an operand
// x (low six bits): 0 a front read of line x%16, the demand fill when
// it opens its reference's requests; 1 a front writeback of line
// x%16; 2 a PTE fetch by variant x%nv of line (x/nv)%16; 3 the end of
// the reference, and also of the batch when x is odd.
func FuzzSharedLLCVsPrivate(f *testing.F) {
	f.Add(uint8(0x05), []byte{0x00, 0xc0, 0x42, 0x00, 0xc0, 0x83, 0x02, 0xc0, 0x40})
	f.Add(uint8(0x17), []byte{0x01, 0x80, 0xc0, 0x81, 0x03, 0xc1, 0x82, 0x83, 0x41, 0xc1})
	f.Fuzz(func(t *testing.T, sel uint8, ops []byte) {
		nv := int(sel&3) + 1
		ways := int(sel>>2&3) + 1
		sets := 1 << (sel >> 4 % 3)
		cfg := Config{Name: "F", SizeBytes: sets * ways * arch.CacheLineSize, Ways: ways, HitLatency: 1}
		var (
			batches [][]sharedRef
			batch   []sharedRef
			ref     = sharedRef{fetches: make([][]arch.PAddr, nv)}
		)
		endRef := func() {
			batch = append(batch, ref)
			ref = sharedRef{fetches: make([][]arch.PAddr, nv)}
		}
		for _, b := range ops {
			x := uint64(b & 63)
			switch b >> 6 {
			case 0:
				if len(ref.events) == 0 {
					ref.demand = true
				}
				ref.events = append(ref.events, rd(x%16))
			case 1:
				ref.events = append(ref.events, wb(x%16))
			case 2:
				vi := int(x) % nv
				ref.fetches[vi] = append(ref.fetches[vi], line(x/uint64(nv)%16))
			case 3:
				endRef()
				if x&1 != 0 {
					batches = append(batches, batch)
					batch = nil
				}
			}
		}
		endRef()
		batches = append(batches, batch)
		checkSharedVsPrivate(t, cfg, nv, batches)
	})
}
