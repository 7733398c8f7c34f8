package rma

import (
	"testing"

	"rmalocks/internal/topology"
)

var opSink int64

// BenchmarkProcOp measures the host cost of one simulated RMA op issued
// through Proc: rank 0 of a two-node machine (16 ranks per node) targets
// a rank on its own node or on the other node, with charge coalescing on
// or off. The other ranks exit at once, so after warm-up every op stays
// on the scheduler's fast path and the rung isolates the op itself:
// distance lookup, memory effect, stats, charge and publication. It must
// not allocate.
func BenchmarkProcOp(b *testing.B) {
	ops := []struct {
		name string
		do   func(p *Proc, target, off, i int) int64
	}{
		{"put", func(p *Proc, target, off, i int) int64 { p.Put(int64(i), target, off); return 0 }},
		{"get", func(p *Proc, target, off, i int) int64 { return p.Get(target, off) }},
		{"cas", func(p *Proc, target, off, i int) int64 { return p.CAS(int64(i+1), int64(i), target, off) }},
	}
	targets := []struct {
		name string
		rank int
	}{{"intra", 1}, {"inter", 16}}
	for _, op := range ops {
		for _, tg := range targets {
			for _, nocoalesce := range []bool{false, true} {
				name := op.name + "/" + tg.name + "/coalesce"
				if nocoalesce {
					name = op.name + "/" + tg.name + "/nocoalesce"
				}
				b.Run(name, func(b *testing.B) {
					m := NewMachineConfig(topology.TwoLevel(2, 16), Config{NoCoalesce: nocoalesce})
					off := m.Alloc(1)
					b.ReportAllocs()
					err := m.Run(func(p *Proc) {
						if p.Rank() != 0 {
							return
						}
						// Warm-up: the first handoffs start and retire
						// every other rank. The op index runs on across
						// it, so every CAS succeeds.
						const warm = 4
						for i := 0; i < warm; i++ {
							op.do(p, tg.rank, off, i)
						}
						var sum int64
						b.ResetTimer()
						for i := warm; i < warm+b.N; i++ {
							sum += op.do(p, tg.rank, off, i)
						}
						b.StopTimer()
						opSink = sum
					})
					if err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}
