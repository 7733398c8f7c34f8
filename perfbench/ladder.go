package main

import (
	"fmt"
	"runtime"
	"time"

	"rmalocks/internal/cache"
	"rmalocks/internal/rma"
	"rmalocks/internal/sim"
	"rmalocks/internal/sweep"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// The layer ladder times one public entry point per layer, from the
// bottom up, so a change in an end-to-end number can be traced to one
// rung. Each rung takes rungSamples samples and reports their median
// and spread.
const rungSamples = 9

// sampleRung runs f rungSamples times after one untimed warm-up call;
// f returns the elapsed time and how many operations it covered.
func sampleRung(f func() (time.Duration, int64, error)) ([]float64, error) {
	if _, _, err := f(); err != nil {
		return nil, err
	}
	out := make([]float64, 0, rungSamples)
	for i := 0; i < rungSamples; i++ {
		runtime.GC() // no sample pays for an earlier one's garbage
		d, n, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, float64(d.Nanoseconds())/float64(n))
	}
	return out, nil
}

// putRung records a rung's median (scaled from ns by div) and spread.
func (m metricSet) putRung(name string, nsPerOp []float64, div float64) {
	m[name] = median(nsPerOp) / div
	m[name+".spread"] = spread(nsPerOp)
}

// advanceRung: the scheduler's lock-free Advance fast path, one process.
func advanceRung() (time.Duration, int64, error) {
	const n = 5_000_000
	s := sim.New(sim.Config{Procs: 1})
	defer s.Release()
	var d time.Duration
	err := s.Run(func(h *sim.Handle) {
		t := time.Now()
		for i := 0; i < n; i++ {
			h.Advance(1)
		}
		d = time.Since(t)
	})
	return d, n, err
}

// handoffRung: two processes advancing in lockstep, so every Advance
// hands the execution token to the other one.
func handoffRung(tr *trace.Sink) (time.Duration, int64, error) {
	const n = 50_000
	s := sim.New(sim.Config{Procs: 2, Trace: tr})
	defer s.Release()
	t := time.Now()
	err := s.Run(func(h *sim.Handle) {
		for i := 0; i < n; i++ {
			h.Advance(10)
		}
	})
	return time.Since(t), 2 * n, err
}

// rmaRung: one rank issuing op on a neighbour's window while the other
// rank idles, with charge coalescing on or off.
func rmaRung(op string, noCoalesce bool) (time.Duration, int64, error) {
	const n = 200_000
	m := rma.NewMachineConfig(topology.ForProcs(2, 16), rma.Config{NoCoalesce: noCoalesce})
	off := m.Alloc(1)
	var d time.Duration
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() != 0 {
			return
		}
		t := time.Now()
		switch op {
		case "put":
			for i := 0; i < n; i++ {
				p.Put(int64(i), 1, off)
			}
		case "get":
			for i := 0; i < n; i++ {
				p.Get(1, off)
			}
		case "cas":
			for i := 0; i < n; i++ {
				p.CAS(int64(i+1), int64(i), 1, off)
			}
		}
		d = time.Since(t)
	})
	if err == nil && m.Stats().Total() != n {
		err = fmt.Errorf("rma rung %s issued %d ops, want %d", op, m.Stats().Total(), n)
	}
	return d, n, err
}

// lockSpec is one acquire/release rung: a single all-write lock.
func lockSpec(scheme string, p int, seed int64, tr *trace.Sink) workload.Spec {
	iters := 50
	if p == 2 {
		iters = 3000
	}
	return workload.Spec{Scheme: scheme, P: p, Iters: iters, Seed: seed,
		Profile: workload.Uniform{FW: 1}, Trace: tr}
}

func lockRung(spec workload.Spec) (time.Duration, int64, error) {
	t := time.Now()
	rep, err := workload.Run(spec)
	d := time.Since(t)
	if err == nil && rep.Ops != int64(spec.P*spec.Iters) {
		err = fmt.Errorf("lock rung %s P=%d ran %d ops, want %d", spec.Scheme, spec.P, rep.Ops, spec.P*spec.Iters)
	}
	return d, rep.Ops + rep.WarmupOps, err
}

// runLadder measures every rung into m.
func runLadder(m metricSet, seed int64, tmpDir string, sample sweep.CellResult) error {
	adv, err := sampleRung(advanceRung)
	if err != nil {
		return fmt.Errorf("advance rung: %w", err)
	}
	m.putRung("sim.advance_ns", adv, 1)

	// One traced run proves the ping-pong really hands off every time.
	tr := trace.New(trace.ClassSched)
	if _, n, err := handoffRung(tr); err != nil {
		return fmt.Errorf("handoff rung: %w", err)
	} else {
		var c layerCounts
		c.add(tr.Events())
		if c.dispatches < n {
			return fmt.Errorf("handoff rung: %d dispatches for %d advances", c.dispatches, n)
		}
	}
	ho, err := sampleRung(func() (time.Duration, int64, error) { return handoffRung(nil) })
	if err != nil {
		return fmt.Errorf("handoff rung: %w", err)
	}
	m.putRung("sim.handoff_ns", ho, 1)

	for _, op := range rungOps {
		for _, nc := range []bool{false, true} {
			op, nc := op, nc
			s, err := sampleRung(func() (time.Duration, int64, error) { return rmaRung(op, nc) })
			if err != nil {
				return fmt.Errorf("rma rung: %w", err)
			}
			name := "rma." + op + "_ns"
			if nc {
				name = "rma." + op + "_nocoalesce_ns"
			}
			m.putRung(name, s, 1)
		}
	}

	for _, s := range schemeNames {
		pfx := "locks." + s + "."
		for _, p := range []int{2, 64} {
			spec := lockSpec(s, p, seed, nil)
			ns, err := sampleRung(func() (time.Duration, int64, error) { return lockRung(spec) })
			if err != nil {
				return err
			}
			m.putRung(fmt.Sprintf("%sacquire_ns_p%d", pfx, p), ns, 1)
		}
		sink := trace.New(trace.ClassAll)
		rep, err := workload.Run(lockSpec(s, 64, seed, sink))
		if err != nil {
			return err
		}
		var c layerCounts
		c.add(sink.Events())
		acq := float64(rep.Ops + rep.WarmupOps)
		m[pfx+"handoffs_per_acquire"] = per(float64(c.dispatches), acq)
		m[pfx+"rma_ops_per_acquire"] = per(float64(c.nonFlushOps()), acq)
		m[pfx+"intra_node_handoff_frac"] = trace.FractionAtMost(rep.HandoffLocality, 1)
	}

	put, get, err := cacheRung(tmpDir, sample)
	if err != nil {
		return fmt.Errorf("cache rung: %w", err)
	}
	m.putRung("cache.store_put_us", put, 1e3)
	m.putRung("cache.store_get_us", get, 1e3)
	return nil
}

// cacheRung times ResultStore Put and Get of one grid CellResult in a
// fresh store; it returns ns per call.
func cacheRung(dir string, r sweep.CellResult) (put, get []float64, err error) {
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	rs := cache.NewResultStore(store)
	const input = "perfbench cache rung"
	put, err = sampleRung(func() (time.Duration, int64, error) {
		const n = 50
		t := time.Now()
		for i := 0; i < n; i++ {
			rs.Put(input, r)
		}
		return time.Since(t), n, nil
	})
	if err != nil {
		return nil, nil, err
	}
	get, err = sampleRung(func() (time.Duration, int64, error) {
		const n = 500
		t := time.Now()
		for i := 0; i < n; i++ {
			got, ok := rs.Get(input)
			if !ok || got.Fingerprint != r.Fingerprint {
				return 0, n, fmt.Errorf("cache rung: Get returned a different result")
			}
		}
		return time.Since(t), n, nil
	})
	return put, get, err
}
