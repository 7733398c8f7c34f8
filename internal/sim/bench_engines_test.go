package sim_test

// Engine-level benchmarks. The headline pair is
// BenchmarkAdvanceUncontended vs BenchmarkAdvanceUncontendedRef: the
// token-owned fast path against the reference (global-mutex,
// container/heap) engine on the same uncontended Advance pattern — the
// overwhelmingly common case under think time and local spins. The fast
// path must be allocation-free and ≥3× cheaper; `make bench` records
// both in BENCH_3.json so future PRs can gate on the ratio.

import (
	"testing"

	"rmalocks/internal/sim"
	"rmalocks/internal/sim/refsim"
	"rmalocks/internal/trace"
)

// BenchmarkAdvanceUncontended measures the fast path: process 1 parks far
// in the future, so every Advance of process 0 stays below its cached
// horizon — a lock-free, heap-free, channel-free clock increment.
func BenchmarkAdvanceUncontended(b *testing.B) {
	s := sim.New(sim.Config{Procs: 2})
	b.ReportAllocs()
	err := s.Run(func(h *sim.Handle) {
		if h.ID() == 1 {
			h.Advance(1 << 40) // park beyond any b.N of 1ns steps
			return
		}
		h.Advance(1) // hand process 1 its slot, take the token back
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Advance(1)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdvanceUncontendedRef is the identical pattern on the refsim
// reference engine: every Advance takes the global mutex and does two
// boxed container/heap operations even though no reschedule happens.
func BenchmarkAdvanceUncontendedRef(b *testing.B) {
	s := refsim.New(sim.Config{Procs: 2})
	b.ReportAllocs()
	err := s.Run(func(h *refsim.Handle) {
		if h.ID() == 1 {
			h.Advance(1 << 40)
			return
		}
		h.Advance(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Advance(1)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdvanceTraced is BenchmarkAdvanceUncontended with full
// tracing (ClassAll) enabled. The pair pins both sides of the tracing
// guard: tracing emits only from the slow (already-locked) scheduler
// paths and the RMA layer's coalescing boundaries, so the lock-free
// fast path is byte-for-byte the untraced code — this benchmark must
// stay at BenchmarkAdvanceUncontended's cost, proving that enabling
// tracing does not tax the ~2ns uncontended Advance at all. (The
// per-event emission cost itself is bounded by the trace package's
// append: one fixed-size store plus a sequence increment.)
func BenchmarkAdvanceTraced(b *testing.B) {
	sink := trace.New(trace.ClassAll)
	s := sim.New(sim.Config{Procs: 2, Trace: sink})
	b.ReportAllocs()
	err := s.Run(func(h *sim.Handle) {
		if h.ID() == 1 {
			h.Advance(1 << 40)
			return
		}
		h.Advance(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Advance(1)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerRun measures a whole simulation: procs × advances
// virtual operations including coroutine handoffs and the core-pool
// recycling across runs, the end-to-end cost a workload harness run pays
// per simulated op.
func BenchmarkSchedulerRun(b *testing.B) {
	const procs, advances = 16, 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{Procs: procs})
		err := s.Run(func(h *sim.Handle) {
			for k := 0; k < advances; k++ {
				h.Advance(int64(k%7) + 1)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
	b.ReportMetric(float64(procs*advances), "ops/run")
}

// BenchmarkSchedulerRunRef is the same end-to-end simulation on the
// reference engine.
func BenchmarkSchedulerRunRef(b *testing.B) {
	const procs, advances = 16, 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := refsim.New(sim.Config{Procs: procs})
		err := s.Run(func(h *refsim.Handle) {
			for k := 0; k < advances; k++ {
				h.Advance(int64(k%7) + 1)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(procs*advances), "ops/run")
}
