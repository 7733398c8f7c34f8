package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
	"rmalocks/internal/trace"
)

// layerCounts tallies the events of traced cells.
type layerCounts struct {
	acquired, dispatches, blocks, remote int64
	ops                                  [trace.OpFlush + 1]int64
}

func (c *layerCounts) add(events []trace.Event) {
	for _, e := range events {
		switch e.Kind {
		case trace.EvDispatch:
			c.dispatches++
		case trace.EvBlock:
			c.blocks++
		case trace.EvAcquired:
			c.acquired++
		case trace.EvOp:
			if e.Arg0 < 0 || e.Arg0 > trace.OpFlush {
				continue
			}
			c.ops[e.Arg0]++
			if e.Arg0 != trace.OpFlush && e.Arg1 != int64(e.Rank) {
				c.remote++
			}
		}
	}
}

// nonFlushOps counts data and atomic operations; flushes only complete
// earlier ones.
func (c layerCounts) nonFlushOps() int64 {
	var n int64
	for k := trace.OpPut; k < trace.OpFlush; k++ {
		n += c.ops[k]
	}
	return n
}

// put records the per-acquisition and per-operation ratios. The base of
// every *_per_acquire ratio is acquisitions including warm-up cycles
// (each traced EvAcquired); the base of flushes_per_op and remote_frac
// is non-flush operations.
func (c layerCounts) put(m metricSet) {
	acq := float64(c.acquired)
	ops := float64(c.nonFlushOps())
	m["sim.handoffs_per_acquire"] = per(float64(c.dispatches), acq)
	m["sim.blocks_per_acquire"] = per(float64(c.blocks), acq)
	m["rma.ops_per_acquire"] = per(ops, acq)
	for k, name := range opKinds {
		m["rma."+name+"_per_acquire"] = per(float64(c.ops[k]), acq)
	}
	m["rma.flushes_per_op"] = per(float64(c.ops[trace.OpFlush]), ops)
	m["rma.remote_frac"] = per(float64(c.remote), ops)
}

// tracedPass runs every cell of the grids once with a trace sink and the
// obs instruments attached through the public Grid fields, one cell at
// a time, and drops each sink once counted: a whole traced grid held in
// memory does not fit a small host. It also runs every cell untraced,
// one at a time, for the tracing-overhead ratio.
func tracedPass(grids []sweep.Grid, untraced []sweep.Cell, m metricSet, chk *checker) error {
	var c layerCounts
	var setupMs, runMs []float64
	var tracedWall, untracedWall time.Duration
	// A traced cell holds its events about three times over (per-rank
	// buffers, the merged stream, the measured-phase copy); a tight GC
	// target keeps the peak near that instead of twice it.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	next := 0 // index of the untraced twin of the next traced cell
	for _, g := range grids {
		metrics := obs.NewMetrics()
		g.Trace = trace.ClassSemantic
		g.Obs = metrics
		cells, err := g.Cells()
		if err != nil {
			return err
		}
		if next+len(cells) > len(untraced) {
			return fmt.Errorf("traced grids have more cells than the %d untraced ones", len(untraced))
		}
		for _, cell := range cells {
			twin := untraced[next : next+1]
			next++
			t := time.Now()
			if _, err := sweep.Run(twin, sweep.Options{Workers: 1}); err != nil {
				return err
			}
			untracedWall += time.Since(t)

			before := metrics.Registry.Snapshot().Phases
			t = time.Now()
			res, err := sweep.Run([]sweep.Cell{cell}, sweep.Options{Workers: 1})
			if err != nil {
				return err
			}
			tracedWall += time.Since(t)
			after := metrics.Registry.Snapshot().Phases
			setupMs = append(setupMs, float64(after["setup"].WallNs-before["setup"].WallNs)/1e6)
			runMs = append(runMs, float64(after["run"].WallNs-before["run"].WallNs)/1e6)

			r := res[0]
			events := r.Trace.Events()
			var cc layerCounts
			cc.add(events)
			chk.op("traced "+r.Key.String(), checkTraced(r, events, cc, g.Iters))
			c.acquired += cc.acquired
			c.dispatches += cc.dispatches
			c.blocks += cc.blocks
			c.remote += cc.remote
			for k := range c.ops {
				c.ops[k] += cc.ops[k]
			}
			res[0].Trace = nil // drop the sink before the next cell
			debug.FreeOSMemory()
		}
	}
	c.put(m)
	m["workload.setup_ms"] = median(setupMs)
	m["workload.run_ms"] = median(runMs)
	m["trace.overhead"] = per(float64(tracedWall), float64(untracedWall))
	return nil
}

// checkTraced validates a traced cell: the replay checker accepts its
// event stream, and the trace agrees with the report on acquisitions
// and remote operations.
func checkTraced(r sweep.CellResult, events []trace.Event, c layerCounts, iters int) error {
	if err := checkCell(r, iters, false); err != nil {
		return err
	}
	if err := trace.Validate(events); err != nil {
		return err
	}
	if want := r.Report.Ops + r.Report.WarmupOps; c.acquired != want {
		return fmt.Errorf("trace has %d acquisitions, report %d", c.acquired, want)
	}
	if c.remote != r.Report.RemoteOps {
		return fmt.Errorf("trace has %d remote ops, report %d", c.remote, r.Report.RemoteOps)
	}
	return nil
}
