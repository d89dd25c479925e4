package core

import (
	"fmt"
	"math/bits"

	"colt/internal/arch"
	"colt/internal/telemetry"
)

// MaxSAShift bounds the left-shift of the set-index bits: a shift of 3
// coalesces up to eight translations, the most a single page-walk cache
// line can supply (§4.1.4).
const MaxSAShift = 3

// invalidSATag's tag field (the top 56 bits) marks an invalid entry
// in the fused tagv lane. A tagv word packs tag<<8 | vbits; real tags
// are VPN bits shifted down past the index, far below 2^56, so a probe
// scan needs no separate valid check: an invalid entry's all-ones tag
// field never matches. Invalidation rewrites only the tag field,
// leaving the low byte's stale valid bits for biasedVictim's ordering
// among invalid entries. The valid lane is still maintained for the
// non-probe readers (EachRun, Occupied, eviction accounting).
const invalidSATag = ^uint64(0)

// validRankBit is the top bit of a rank word. A rank lane fuses the
// replacement ordering "invalid ways first, then least-recently used"
// into one unsigned key per entry: the low 63 bits are the LRU tick,
// the top bit is set while the entry is valid. A plain first-minimum
// scan over ranks then picks exactly the entry the two-lane
// (valid,lru) comparison would: invalid ranks (top bit clear) sort
// below every valid one, and within a validity class the tick decides.
// Invalidation only clears the top bit, so stale ticks keep ordering
// invalid entries among themselves. LRU ticks increment once per
// lookup or fill and cannot plausibly reach 2^63.
const validRankBit = uint64(1) << 63

// TLBStats counts one TLB structure's activity.
type TLBStats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	CoalescedIn uint64 // translations inserted beyond the requested one
	Evictions   uint64
	Invalidates uint64
}

// HitRate returns Hits/Lookups. A structure that was never probed
// (zero lookups) reports 0, never NaN.
func (s TLBStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// SetAssocTLB is a set-associative TLB supporting CoLT-SA coalescing.
// With Shift()==0 it behaves as a conventional TLB (one translation per
// entry): the baseline configuration.
//
// Entry state is laid out structure-of-arrays: parallel lanes indexed
// set*ways+way, so a set probe scans ways-many adjacent words instead
// of striding over entry structs. Each conceptual entry is one CoLT-SA
// entry (§4.1.3, Figure 4 top): the tag is the VPN bits above the
// (shifted) index; vbits has one valid bit per possible translation of
// the aligned coalescing block; basePPN is the frame of the first
// valid translation; a single attribute set covers the whole entry.
// The probe path reads a single fused lane, tagv = tag<<8 | vbits
// (vbits is at most 8 bits, MaxSAShift = 3), so a lookup's tag match
// AND valid-bit test are one load and two ALU ops per way. The low
// byte is the only home of the valid bits: invalidation rewrites just
// the tag field to the sentinel, keeping the stale vbits in place for
// biasedVictim's ordering among invalid entries.
type SetAssocTLB struct {
	sets    int
	ways    int
	shift   uint // log2(max translations per entry)
	setBits uint

	valid   []bool
	tagv    []uint64 // tag<<8 | vbits; tag field all-ones when invalid
	basePPN []arch.PFN
	attr    []arch.Attr
	// rank fuses validity and LRU recency into one replacement-ordering
	// key (see validRankBit), so victim scans read a single lane.
	rank []uint64
	// born is the telemetry clock value at fill, so eviction can report
	// the entry's lifetime in references without any per-entry map.
	born []uint64

	tick  uint64
	stats TLBStats
	// coalesceBias enables coalescing-aware replacement (future work
	// of paper §4.1.5): see SetReplacementBias.
	coalesceBias bool
	// Telemetry (nil when disabled): tel receives eviction events at
	// telLevel; telClock points at the driver's monotonic reference
	// counter, stamping fills so evictions can report entry lifetime.
	tel      *telemetry.Sink
	telLevel uint8
	telClock *uint64
}

// SetTelemetry attaches a telemetry sink reporting this structure as
// level, with clock as the monotonic reference counter used to stamp
// fills and measure entry lifetimes. Pass a nil sink to detach.
func (t *SetAssocTLB) SetTelemetry(s *telemetry.Sink, level uint8, clock *uint64) {
	t.tel, t.telLevel, t.telClock = s, level, clock
}

// NewSetAssocTLB builds a TLB with the given geometry. shift selects
// the indexing scheme: set index = VPN[shift+log2(sets)-1 : shift],
// so up to 2^shift consecutive translations share a set and may be
// coalesced into one entry.
func NewSetAssocTLB(sets, ways int, shift uint) *SetAssocTLB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("core: set count %d must be a power of two", sets))
	}
	if ways <= 0 {
		panic("core: ways must be positive")
	}
	if shift > MaxSAShift {
		panic(fmt.Sprintf("core: shift %d exceeds max %d", shift, MaxSAShift))
	}
	n := sets * ways
	t := &SetAssocTLB{
		sets:    sets,
		ways:    ways,
		shift:   shift,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		valid:   make([]bool, n),
		tagv:    make([]uint64, n),
		basePPN: make([]arch.PFN, n),
		attr:    make([]arch.Attr, n),
		rank:    make([]uint64, n),
		born:    make([]uint64, n),
	}
	for i := range t.tagv {
		t.tagv[i] = invalidSATag &^ 0xff // sentinel tag, zero stale vbits
	}
	return t
}

// Entries returns the capacity in entries (sets × ways).
func (t *SetAssocTLB) Entries() int { return t.sets * t.ways }

// Sets returns the set count.
func (t *SetAssocTLB) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *SetAssocTLB) Ways() int { return t.ways }

// Shift returns the index left-shift (log2 max coalescing).
func (t *SetAssocTLB) Shift() uint { return t.shift }

// MaxCoalesce returns the most translations one entry can hold.
func (t *SetAssocTLB) MaxCoalesce() int { return 1 << t.shift }

// Stats returns a snapshot of the counters; Lookups is derived (every
// probe either hits or misses), keeping the probe path to one counter.
func (t *SetAssocTLB) Stats() TLBStats {
	s := t.stats
	s.Lookups = s.Hits + s.Misses
	return s
}

// ResetStats zeroes the counters.
func (t *SetAssocTLB) ResetStats() { t.stats = TLBStats{} }

func (t *SetAssocTLB) index(vpn arch.VPN) (set int, tag uint64, off uint) {
	block := uint64(vpn) >> t.shift
	return int(block & uint64(t.sets-1)), block >> t.setBits, uint(vpn) & (uint(1)<<t.shift - 1)
}

// Lookup translates vpn. On a hit the physical frame is reconstructed
// by the PPN Generation Logic of §4.1.3: the stored base PPN plus the
// number of valid bits between the first valid translation and the
// requested one.
func (t *SetAssocTLB) Lookup(vpn arch.VPN) (arch.PFN, bool) {
	set, tag, off := t.index(vpn)
	base := set * t.ways
	bit := uint64(1) << off
	tagv := t.tagv[base : base+t.ways]
	for i := range tagv {
		if w := tagv[i]; w>>8 == tag && w&bit != 0 {
			j := base + i
			t.stats.Hits++
			t.tick++
			t.rank[j] = t.tick | validRankBit
			return t.basePPN[j] + arch.PFN(bits.OnesCount8(uint8(w)&(uint8(bit)-1))), true
		}
	}
	t.stats.Misses++
	return 0, false
}

// lookupWithRun is Lookup fused with LookupRun for the hierarchy's
// L2-hit path: one set scan yields both the translation (updating
// recency and counters exactly as Lookup does) and the full resident
// run to copy down into the L1, instead of scanning the same set twice
// back-to-back.
func (t *SetAssocTLB) lookupWithRun(vpn arch.VPN) (arch.PFN, Run, bool) {
	set, tag, off := t.index(vpn)
	base := set * t.ways
	bit := uint64(1) << off
	tagv := t.tagv[base : base+t.ways]
	for i := range tagv {
		if w := tagv[i]; w>>8 == tag && w&bit != 0 {
			j := base + i
			t.stats.Hits++
			t.tick++
			t.rank[j] = t.tick | validRankBit
			pfn := t.basePPN[j] + arch.PFN(bits.OnesCount8(uint8(w)&(uint8(bit)-1)))
			return pfn, t.entryRun(j, vpn), true
		}
	}
	t.stats.Misses++
	return 0, Run{}, false
}

// LookupRun returns the full coalesced run covering vpn, used to copy
// an L2 entry down into the L1 on an L2 hit without a new page walk.
// It does not update recency or counters.
func (t *SetAssocTLB) LookupRun(vpn arch.VPN) (Run, bool) {
	set, tag, off := t.index(vpn)
	base := set * t.ways
	bit := uint64(1) << off
	for i := base; i < base+t.ways; i++ {
		if w := t.tagv[i]; w>>8 == tag && w&bit != 0 {
			return t.entryRun(i, vpn), true
		}
	}
	return Run{}, false
}

// entryRun reconstructs the Run stored in entry i; vpn identifies the
// block.
func (t *SetAssocTLB) entryRun(i int, vpn arch.VPN) Run {
	blockStart := vpn &^ (arch.VPN(1)<<t.shift - 1)
	vb := uint8(t.tagv[i])
	lo := uint(bits.TrailingZeros8(vb))
	return Run{
		BaseVPN: blockStart + arch.VPN(lo),
		BasePFN: t.basePPN[i],
		Len:     bits.OnesCount8(vb),
		Attr:    t.attr[i],
	}
}

// setEntry overwrites entry i's lanes with a freshly-filled entry.
func (t *SetAssocTLB) setEntry(i int, tag uint64, vbits uint8, basePPN arch.PFN, attr arch.Attr, now uint64) {
	t.valid[i] = true
	t.tagv[i] = tag<<8 | uint64(vbits)
	t.basePPN[i] = basePPN
	t.attr[i] = attr
	t.rank[i] = t.tick | validRankBit
	// born is only read when an eviction reports a lifetime, so the
	// store is skipped entirely when no sink is attached.
	if t.tel != nil {
		t.born[i] = now
	}
}

// setVbits rewrites a resident entry's valid bits in the fused probe
// word's low byte (graceful invalidation shrinks them).
func (t *SetAssocTLB) setVbits(i int, vbits uint8) {
	t.tagv[i] = t.tagv[i]&^uint64(0xff) | uint64(vbits)
}

// Insert fills one coalesced entry holding run, which must lie within a
// single aligned coalescing block (use ClipToBlock first). If a
// resident entry for the same block overlaps the run it is replaced;
// otherwise the set's LRU way is evicted. Insert returns the evicted
// run (for inclusive back-invalidation) and whether an eviction
// happened.
func (t *SetAssocTLB) Insert(run Run) (evicted Run, wasEvicted bool) {
	return t.insert(run, true)
}

// InsertDiscard is Insert for fills whose caller ignores the evicted
// run (the L1 copy-down path): the victim's range reconstruction is
// skipped unless eviction telemetry needs it.
func (t *SetAssocTLB) InsertDiscard(run Run) {
	t.insert(run, false)
}

func (t *SetAssocTLB) insert(run Run, needEvicted bool) (evicted Run, wasEvicted bool) {
	if run.Len <= 0 || run.Len > t.MaxCoalesce() {
		panic(fmt.Sprintf("core: insert of %v into TLB with max coalesce %d", run, t.MaxCoalesce()))
	}
	set, tag, off := t.index(run.BaseVPN)
	// Same aligned coalescing block ⟺ identical bits above the shift;
	// one XOR-shift checks what re-deriving the end's set and tag would.
	if (uint64(run.BaseVPN)^uint64(run.End()-1))>>t.shift != 0 {
		panic(fmt.Sprintf("core: %v spans coalescing blocks", run))
	}
	vbits := uint8(1<<uint(run.Len)-1) << off
	t.tick++
	t.stats.Fills++
	if run.Len > 1 {
		t.stats.CoalescedIn += uint64(run.Len - 1)
	}
	var now uint64
	if t.telClock != nil {
		now = *t.telClock
	}

	// One fused pass over the set: the overlap check (same block,
	// overlapping coverage → replace in place) and the victim scan — a
	// first-minimum over the rank lane, which encodes the "invalid ways
	// first, then least-recently used, first-lowest wins" ordering in a
	// single unsigned compare per way. Fills rarely overlap a resident
	// entry, so a separate overlap pass would walk the whole set for
	// nothing on almost every insert.
	base := set * t.ways
	if w := t.tagv[base]; w>>8 == tag && w&uint64(vbits) != 0 {
		t.setEntry(base, tag, vbits, run.BasePFN, run.Attr, now)
		return Run{}, false
	}
	victim, vRank := base, t.rank[base]
	for i := base + 1; i < base+t.ways; i++ {
		if w := t.tagv[i]; w>>8 == tag && w&uint64(vbits) != 0 {
			t.setEntry(i, tag, vbits, run.BasePFN, run.Attr, now)
			return Run{}, false
		}
		if r := t.rank[i]; r < vRank {
			victim, vRank = i, r
		}
	}
	if t.coalesceBias {
		victim = t.biasedVictim(base)
	}
	if t.valid[victim] {
		t.stats.Evictions++
		wasEvicted = true
		if needEvicted || t.tel != nil {
			// victimVPN re-derives the set with a division; the insert
			// path already has it in hand.
			vvpn := arch.VPN((t.tagv[victim]>>8<<t.setBits | uint64(set)) << t.shift)
			evicted = t.entryRun(victim, vvpn)
			if t.tel != nil {
				t.tel.Evict(t.telLevel, uint64(evicted.BaseVPN), now-t.born[victim])
			}
		}
	}
	t.setEntry(victim, tag, vbits, run.BasePFN, run.Attr, now)
	return evicted, wasEvicted
}

// biasedVictim picks a victim among the set's stale half, preferring
// entries that coalesce the fewest translations (so large-reach entries
// survive). Invalid ways still win outright.
func (t *SetAssocTLB) biasedVictim(base int) int {
	victim := base
	for i := base; i < base+t.ways; i++ {
		if t.valid[i] != t.valid[victim] {
			if !t.valid[i] {
				victim = i
			}
			continue
		}
		ca, cb := bits.OnesCount8(uint8(t.tagv[i])), bits.OnesCount8(uint8(t.tagv[victim]))
		if ca != cb {
			if ca < cb {
				victim = i
			}
			continue
		}
		if t.rank[i] < t.rank[victim] {
			victim = i
		}
	}
	return victim
}

// victimVPN reconstructs a VPN inside entry i's block from its set
// index and tag.
func (t *SetAssocTLB) victimVPN(i int) arch.VPN {
	set := i / t.ways
	block := t.tagv[i]>>8<<t.setBits | uint64(set)
	return arch.VPN(block << t.shift)
}

// Invalidate drops any entry translating vpn. Entire coalesced entries
// are flushed, losing the sibling translations (§4.1.5). Returns true
// if an entry was removed.
func (t *SetAssocTLB) Invalidate(vpn arch.VPN) bool {
	set, tag, off := t.index(vpn)
	base := set * t.ways
	bit := uint64(1) << off
	removed := false
	for i := base; i < base+t.ways; i++ {
		if w := t.tagv[i]; w>>8 == tag && w&bit != 0 {
			t.dropEntry(i)
			removed = true
			t.stats.Invalidates++
		}
	}
	return removed
}

// invalidateRange drops every entry translating a vpn in [base, end) —
// Invalidate's loop over the range, but with one set probe per aligned
// coalescing block instead of one per vpn: the block's covered slots
// collapse into a single valid-bit mask. Entry drops, and therefore
// the Invalidates counter, match the per-vpn loop exactly (an entry is
// dropped once, on its first covering probe, either way).
func (t *SetAssocTLB) invalidateRange(base, end arch.VPN) {
	for v := base; v < end; {
		set, tag, off := t.index(v)
		n := arch.VPN(1)<<t.shift - arch.VPN(off)
		if rem := end - v; rem < n {
			n = rem
		}
		mask := uint64(uint16(1)<<n-1) << off
		b0 := set * t.ways
		for i := b0; i < b0+t.ways; i++ {
			if w := t.tagv[i]; w>>8 == tag && w&mask != 0 {
				t.dropEntry(i)
				t.stats.Invalidates++
			}
		}
		v += n
	}
}

// dropEntry marks entry i invalid: rewriting the tag field to the
// sentinel removes it from the probe scans, and clearing the rank
// word's valid bit moves it ahead of every resident entry in
// replacement order. The tagv low byte (the valid bits), the rank's
// stale tick, and born are kept — biasedVictim's comparisons among
// invalid entries read them.
func (t *SetAssocTLB) dropEntry(i int) {
	t.valid[i] = false
	t.tagv[i] |= invalidSATag &^ 0xff
	t.rank[i] &^= validRankBit
}

// InvalidateAll flushes the TLB.
func (t *SetAssocTLB) InvalidateAll() {
	for i := range t.valid {
		t.dropEntry(i)
	}
	t.stats.Invalidates++
}

// EachRun calls fn with every valid entry's coalesced run, in entry
// order. Invariant auditors use this to check resident translations
// against the page table; it does not touch recency or counters.
func (t *SetAssocTLB) EachRun(fn func(Run)) {
	for i := range t.valid {
		if !t.valid[i] || uint8(t.tagv[i]) == 0 {
			continue
		}
		fn(t.entryRun(i, t.victimVPN(i)))
	}
}

// Occupied returns the number of valid entries; coalesced entries count
// once.
func (t *SetAssocTLB) Occupied() int {
	n := 0
	for i := range t.valid {
		if t.valid[i] {
			n++
		}
	}
	return n
}
