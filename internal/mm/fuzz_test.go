package mm_test

import (
	"testing"

	"colt/internal/arch"
	"colt/internal/invariant"
	"colt/internal/mm"
)

// fuzzBlock tracks one live allocation during the fuzz run.
type fuzzBlock struct {
	pfn   arch.PFN
	order int
}

// fuzzMigrator keeps the fuzz harness's view of movable pages in sync
// with compaction: every tracked order-0 page the daemon moves is
// rehomed in the live list so later frees release the right frames.
type fuzzMigrator struct{ live *[]fuzzBlock }

func (m fuzzMigrator) MigratePage(owner mm.PageOwner, from, to arch.PFN) error {
	for i := range *m.live {
		if (*m.live)[i].order == 0 && (*m.live)[i].pfn == from {
			(*m.live)[i].pfn = to
			break
		}
	}
	return nil
}

// FuzzBuddyAllocFree drives random alloc/free/compact sequences against
// a small machine and runs the buddy free-list auditor after every
// step: no operation order may corrupt block alignment, free-page
// accounting, or the allocated/free partition that the allocation
// bitmap and the free lists record between them. Movable order-0 pages
// let the compaction daemon migrate under the allocator's feet; larger
// blocks are pinned, modeling the kernel obstacles of paper §3.2.2.
func FuzzBuddyAllocFree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x04, 0x08, 0x02, 0x06})
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0x02, 0x03, 0x00, 0x02})
	f.Add([]byte{0x11, 0x25, 0x00, 0x03, 0x0a, 0x03, 0x16, 0x02, 0x02})
	f.Add([]byte{0x00, 0x01, 0x04, 0x05, 0x02, 0x06, 0x03, 0x07, 0x0b, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		phys := mm.NewPhysMem(256)
		buddy := mm.NewBuddy(phys)
		var live []fuzzBlock
		comp := mm.NewCompactor(phys, buddy, fuzzMigrator{live: &live}, mm.CompactionNormal)

		nextVPN := arch.VPN(0)
		audit := func(step int, op byte) {
			if vs := invariant.AuditBuddy(buddy); len(vs) != 0 {
				t.Fatalf("step %d (op 0x%02x): buddy invariant broken: %v", step, op, vs[0])
			}
			// The allocation bitmap and the free lists must partition
			// memory: every set bit is a frame off the free lists.
			if got, want := phys.AllocatedFrames(), phys.NumFrames()-int(buddy.FreePages()); got != want {
				t.Fatalf("step %d (op 0x%02x): bitmap has %d allocated frames, free lists imply %d", step, op, got, want)
			}
		}
		audit(-1, 0)
		for step, op := range ops {
			switch op % 4 {
			case 0, 1: // allocate a block of order 0..2
				order := int(op>>2) % 3
				pfn, err := buddy.AllocBlock(order)
				if err == nil {
					for i := 0; i < 1<<order; i++ {
						// Only single pages are movable; the harness
						// cannot track a split multi-page block across
						// migration.
						phys.SetOwner(pfn+arch.PFN(i), mm.PageOwner{PID: 1, VPN: nextVPN}, order == 0)
						nextVPN++
					}
					live = append(live, fuzzBlock{pfn: pfn, order: order})
				}
			case 2: // free a live block
				if len(live) > 0 {
					idx := int(op>>2) % len(live)
					b := live[idx]
					buddy.FreeRange(b.pfn, 1<<b.order)
					live = append(live[:idx], live[idx+1:]...)
				}
			case 3: // run the compaction daemon
				comp.Compact(-1)
			}
			audit(step, op)
		}
	})
}
