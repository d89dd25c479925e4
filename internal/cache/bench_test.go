package cache

import (
	"math/rand"
	"testing"

	"colt/internal/arch"
)

// benchStream is one fixed-seed access stream for the benchmarks.
type benchStream struct {
	name   string
	events []LLCEvent
}

// benchStreams returns two fixed-seed streams of 64 K line addresses
// over a 16 MB footprint (four times the LLC), a quarter of them
// writes. "zipf" draws lines Zipf-skewed, so most accesses hit;
// "uniform" draws them uniformly, so most accesses miss and many
// evict.
func benchStreams() []benchStream {
	const n, lines = 1 << 16, 16 << 20 / arch.CacheLineSize
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, 1.1, 1, lines-1)
	streams := []benchStream{{name: "zipf"}, {name: "uniform"}}
	for k := range streams {
		draw := z.Uint64
		if streams[k].name == "uniform" {
			draw = func() uint64 { return uint64(r.Int63n(lines)) }
		}
		s := make([]LLCEvent, n)
		for i := range s {
			s[i] = LLCEvent{Addr: arch.PAddr(draw() * arch.CacheLineSize), Write: r.Intn(4) == 0}
		}
		streams[k].events = s
	}
	return streams
}

// BenchmarkSharedLLC meters the LLC as the batched engine drives it:
// one SharedLLC with four variant views, each of which has forked a
// sixteenth of the sets (the engine's walkers fork a few hundred of
// the 4096), fed the stream in 256-event batches, one event per
// reference: the shared pass, then each view's pass. One op is one
// event applied for all four variants.
func BenchmarkSharedLLC(b *testing.B) {
	for _, bs := range benchStreams() {
		b.Run(bs.name, func(b *testing.B) {
			const variants, batch = 4, 256
			stream := bs.events
			s := NewSharedLLC()
			views := make([]*LLCView, variants)
			for i := range views {
				views[i] = s.NewView()
			}
			run := func(events []LLCEvent) {
				for lo := 0; lo < len(events); lo += batch {
					chunk := events[lo:min(lo+batch, len(events))]
					s.Begin()
					for i := range chunk {
						s.Apply(chunk[i:i+1], !chunk[i].Write)
					}
					for _, v := range views {
						for range chunk {
							v.Next()
						}
					}
				}
			}
			s.Begin()
			for i, v := range views {
				for set := i; set < s.shared.sets; set += 16 {
					v.WalkAccess(arch.PAddr(set * arch.CacheLineSize))
				}
			}
			run(stream) // warm: steady-state occupancy, not cold fills
			b.ResetTimer()
			for done := 0; done < b.N; {
				lo := done % len(stream)
				n := min(batch, b.N-done, len(stream)-lo)
				run(stream[lo : lo+n])
				done += n
			}
		})
	}
}

// BenchmarkFrontDataAccess meters the shared L1/L2 front: one op is
// one demand data reference, including the capture of its LLC-bound
// requests.
func BenchmarkFrontDataAccess(b *testing.B) {
	for _, bs := range benchStreams() {
		b.Run(bs.name, func(b *testing.B) {
			stream := bs.events
			f := NewFront()
			for _, e := range stream {
				f.DataAccess(e.Addr, e.Write)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := stream[i%len(stream)]
				f.DataAccess(e.Addr, e.Write)
			}
		})
	}
}
