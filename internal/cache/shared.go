package cache

import "colt/internal/arch"

// This file implements the LLC every TLB variant of a job shares. The
// variants translate one reference stream against one page table, so
// the shared Front sends every variant's LLC the same requests in the
// same order; the only accesses that differ are each variant's
// page-walker PTE fetches, which enter at the LLC (§4.1.1). A variant's
// LLC set therefore equals the set the front's requests alone produce
// until that variant's walker first fetches a line into it. SharedLLC
// keeps one copy of every set for the front's requests and gives a
// variant its own copy of a set ("forks" it) at the variant's first PTE
// fetch into that set. A variant reads every set it has not forked from
// the shared copy, so its latencies, and the contents of every one of
// its sets, are exactly those of a private LLC (DESIGN.md §17).
//
// Work is batched. Begin opens a batch; Apply runs each reference's
// front requests against the shared sets in stream order and logs
// them; then each variant's view walks the batch in stream order,
// WalkAccess for the variant's PTE fetches of a reference and Next to
// move past it. A fork mid-batch starts from the set as it stood when
// the batch opened and replays the batch's logged requests to the set
// up to the view's reference.

// SharedLLC is the paper's LLC shared by every TLB variant of a job.
// It is not safe for concurrent use; each job owns one.
type SharedLLC struct {
	shared *Cache
	views  []*LLCView

	// The batch log: each request Apply ran, in stream order, and each
	// reference's span of it.
	log  []LLCEvent
	refs []refSpan
	// forkers holds, per set, the bits of the views that have forked
	// it (see LLCView.bit).
	forkers []uint64

	// Start-of-batch copies of the sets the batch has touched, taken
	// before the batch's first request to each: set s was copied this
	// batch when snapEpoch[s] == epoch, to block snapAt[s] of snapTags
	// (ways words) and snapLRU.
	epoch     uint32
	snapEpoch []uint32
	snapAt    []int32
	snapTags  []uint32
	snapLRU   []uint64
}

// refSpan is one reference's requests, log[lo:hi]. demand reports
// that log[lo] is its demand fill, the only one on the critical path,
// and lat is that fill's latency on the shared sets (0 without one).
// views has the bits of the views that, when Apply ran, had forked a
// set the requests touch; any other view reads lat and is done.
type refSpan struct {
	lo, hi int32
	lat    int32
	demand bool
	views  uint64
}

// NewSharedLLC builds the paper's 4 MB, 16-way LLC over memory, with
// no variants yet (see NewView).
func NewSharedLLC() *SharedLLC { return newSharedLLC(llcConfig(), memLatency) }

func newSharedLLC(cfg Config, memLat int) *SharedLLC {
	c := New(cfg, &Memory{Latency: memLat})
	return &SharedLLC{
		shared:    c,
		forkers:   make([]uint64, c.sets),
		epoch:     1,
		snapEpoch: make([]uint32, c.sets),
		snapAt:    make([]int32, c.sets),
	}
}

// NewView adds a variant whose LLC starts as the shared one.
func (s *SharedLLC) NewView() *LLCView {
	c := s.shared
	v := &LLCView{
		s:    s,
		own:  newSparse(c.cfg, c.sets, &Memory{Latency: c.nextMem.Latency}),
		slot: make([]int32, c.sets),
		bit:  1 << (len(s.views) % 64),
	}
	s.views = append(s.views, v)
	return v
}

// Begin opens a batch: it empties the log and rewinds every view to
// the batch's first reference.
func (s *SharedLLC) Begin() {
	s.log, s.refs = s.log[:0], s.refs[:0]
	s.snapTags, s.snapLRU = s.snapTags[:0], s.snapLRU[:0]
	if s.epoch++; s.epoch == 0 {
		clear(s.snapEpoch)
		s.epoch = 1
	}
	for _, v := range s.views {
		v.ref, v.stale = 0, false
	}
}

// Apply runs the batch's next reference's LLC-bound requests, as
// Front.DataAccess returned them, against the shared sets and logs
// them for the views. demand reports that events[0] is the demand
// fill.
func (s *SharedLLC) Apply(events []LLCEvent, demand bool) {
	c := s.shared
	r := refSpan{lo: int32(len(s.log)), demand: demand}
	for i, e := range events {
		set := c.setOf(e.Addr)
		if s.snapEpoch[set] != s.epoch {
			s.snapshot(set)
		}
		r.views |= s.forkers[set]
		if lat := c.accessAt(set, e.Addr, e.Write); i == 0 && demand {
			r.lat = int32(lat)
		}
	}
	s.log = append(s.log, events...)
	r.hi = int32(len(s.log))
	s.refs = append(s.refs, r)
}

// snapshot copies set as it stands before the batch's first request
// to it.
func (s *SharedLLC) snapshot(set int) {
	c := s.shared
	s.snapEpoch[set] = s.epoch
	s.snapAt[set] = int32(len(s.snapLRU))
	s.snapTags = append(s.snapTags, c.tags[set*c.ways:(set+1)*c.ways]...)
	s.snapLRU = append(s.snapLRU, c.lru[set])
}

// LLCView is one variant's LLC: its own copies of the sets its walker
// has fetched into, the shared sets for the rest.
type LLCView struct {
	s *SharedLLC
	// own holds the forked sets densely, in fork order: set s is at
	// slot slot[s]-1 of own's lanes, and slot[s] == 0 while s is
	// shared.
	own  *Cache
	slot []int32
	// bit is the view's bit in refSpan.views and forkers. Views beyond
	// the 64th share bits, which only sends them down the exact path
	// more often.
	bit uint64
	// ref is the view's reference within the batch: the one whose PTE
	// fetches WalkAccess serves, and which Next moves past.
	ref int
	// stale is set when the view forks a set the batch's requests
	// touch: the batch's views masks predate that fork.
	stale bool
}

// Forks returns how many sets the view has forked.
func (v *LLCView) Forks() int { return len(v.own.lru) }

// WalkAccess services a PTE fetch of the view's current reference and
// returns its latency. The variant's first fetch into a set forks it.
func (v *LLCView) WalkAccess(addr arch.PAddr) int {
	set := v.s.shared.setOf(addr)
	slot := v.slot[set]
	if slot == 0 {
		slot = v.fork(set)
	}
	return v.own.accessAt(int(slot-1), addr, false)
}

// Next moves the view past its current reference: the reference's
// requests reach the sets the variant has forked, and Next returns the
// reference's LLC latency, that of its demand fill (0 when the front
// served the reference without one).
func (v *LLCView) Next() int {
	r := &v.s.refs[v.ref]
	v.ref++
	if r.views&v.bit == 0 && !v.stale {
		return int(r.lat)
	}
	return v.replay(r)
}

// replay applies r's requests to the view's forked sets and returns
// r's LLC latency.
func (v *LLCView) replay(r *refSpan) int {
	s := v.s
	lat := int(r.lat)
	for i := r.lo; i < r.hi; i++ {
		e := &s.log[i]
		if slot := v.slot[s.shared.setOf(e.Addr)]; slot != 0 {
			l := v.own.accessAt(int(slot-1), e.Addr, e.Write)
			if i == r.lo && r.demand {
				lat = l
			}
		}
	}
	return lat
}

// fork gives the view its own copy of set, brought to the view's
// current reference, and returns the copy's slot plus one.
func (v *LLCView) fork(set int) int32 {
	s, c := v.s, v.s.shared
	tags, lru := c.tags[set*c.ways:(set+1)*c.ways], c.lru[set]
	touched := s.snapEpoch[set] == s.epoch
	if touched {
		i := int(s.snapAt[set])
		tags, lru = s.snapTags[i*c.ways:(i+1)*c.ways], s.snapLRU[i]
	}
	slot := len(v.own.lru)
	v.own.tags = append(v.own.tags, tags...)
	v.own.lru = append(v.own.lru, lru)
	v.slot[set] = int32(slot) + 1
	s.forkers[set] |= v.bit
	if touched {
		v.stale = true
		// The copy is the set as the batch found it: replay the batch's
		// requests to it that precede the view's reference.
		end := len(s.log)
		if v.ref < len(s.refs) {
			end = int(s.refs[v.ref].lo)
		}
		for _, e := range s.log[:end] {
			if c.setOf(e.Addr) == set {
				v.own.accessAt(slot, e.Addr, e.Write)
			}
		}
	}
	return int32(slot) + 1
}
