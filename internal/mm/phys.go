// Package mm implements the OS memory-management substrate whose
// behaviour the CoLT paper characterizes in §3: a Linux-style binary
// buddy allocator, a memory-compaction daemon, and transparent hugepage
// (THP) support. Together these are the mechanisms that "naturally
// assign contiguous physical pages to contiguous virtual pages" and that
// CoLT's coalescing hardware exploits.
package mm

import (
	"fmt"
	"math/bits"

	"colt/internal/arch"
)

// KernelPID identifies kernel-owned (pinned, unmovable) frames such as
// page-table pages.
const KernelPID = 0

// PageOwner records which process virtual page a frame currently backs,
// so the compaction daemon can rehome the mapping when it migrates the
// frame.
type PageOwner struct {
	PID int
	VPN arch.VPN
}

// Frame is the per-physical-frame metadata, the simulator's equivalent
// of Linux's struct page. Whether the frame is allocated lives in
// PhysMem's allocation bitmap, not here (see PhysMem.Allocated).
type Frame struct {
	// Movable marks frames the compaction daemon may migrate. User
	// pages are movable; kernel and page-table pages are not
	// (paper §3.2.2).
	Movable bool
	Owner   PageOwner
}

// PhysMem models the machine's physical memory as an array of frames
// plus an allocation bitmap.
type PhysMem struct {
	frames []Frame
	// alloc holds one bit per frame, set while the frame is allocated:
	// frame pfn is bit pfn%64 of word pfn/64. It is the only record of
	// allocation state. The buddy allocator is its only writer, and
	// the compactor's free-run search reads it 64 frames per load.
	alloc []uint64
}

// NewPhysMem creates a physical memory with n frames.
func NewPhysMem(n int) *PhysMem {
	if n <= 0 {
		panic("mm: physical memory must have at least one frame")
	}
	return &PhysMem{frames: make([]Frame, n), alloc: make([]uint64, (n+63)/64)}
}

// NumFrames returns the total number of frames.
func (pm *PhysMem) NumFrames() int { return len(pm.frames) }

// Bytes returns the physical memory size in bytes.
func (pm *PhysMem) Bytes() uint64 { return uint64(len(pm.frames)) * arch.PageSize }

// Frame returns a pointer to the metadata for pfn.
func (pm *PhysMem) Frame(pfn arch.PFN) *Frame {
	return &pm.frames[pfn]
}

// Allocated reports whether frame pfn is allocated.
func (pm *PhysMem) Allocated(pfn arch.PFN) bool {
	return pm.alloc[pfn>>6]&(1<<(pfn&63)) != 0
}

// AllocBitmap returns the live allocation bitmap (frame pfn is bit
// pfn%64 of word pfn/64). Writing to it bypasses the allocator and
// corrupts its state; it exists so audits can be tested against
// deliberately corrupted metadata.
func (pm *PhysMem) AllocBitmap() []uint64 { return pm.alloc }

// nextAllocated returns the first allocated frame in [from, to), or to
// when there is none, reading the bitmap a word at a time.
func (pm *PhysMem) nextAllocated(from, to arch.PFN) arch.PFN {
	w := int(from >> 6)
	word := pm.alloc[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		w++
		if arch.PFN(w)<<6 >= to {
			return to
		}
		word = pm.alloc[w]
	}
	return min(arch.PFN(w)<<6+arch.PFN(bits.TrailingZeros64(word)), to)
}

func (pm *PhysMem) setAllocated(pfn arch.PFN)   { pm.alloc[pfn>>6] |= 1 << (pfn & 63) }
func (pm *PhysMem) clearAllocated(pfn arch.PFN) { pm.alloc[pfn>>6] &^= 1 << (pfn & 63) }

// Valid reports whether pfn addresses a frame inside this memory.
func (pm *PhysMem) Valid(pfn arch.PFN) bool {
	return uint64(pfn) < uint64(len(pm.frames))
}

// SetOwner marks a frame's owner and movability in one step.
func (pm *PhysMem) SetOwner(pfn arch.PFN, owner PageOwner, movable bool) {
	f := &pm.frames[pfn]
	f.Owner = owner
	f.Movable = movable
}

// AllocatedFrames counts currently allocated frames (O(n/64); intended
// for tests and reporting, not hot paths).
func (pm *PhysMem) AllocatedFrames() int {
	n := 0
	for _, w := range pm.alloc {
		n += bits.OnesCount64(w)
	}
	return n
}

// String summarizes occupancy.
func (pm *PhysMem) String() string {
	return fmt.Sprintf("PhysMem{%d frames, %d allocated}", len(pm.frames), pm.AllocatedFrames())
}
