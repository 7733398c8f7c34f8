package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json: its name, unit and
// which direction is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports all of them (see METRICS.md for
// what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"acquires_per_s", "1/s", "higher"},
	{"pass_ms", "ms", "lower"},
	{"sys_bytes_per_rank", "B", "lower"},
}

// schemeNames are the lock schemes of the paper, in registry order; the
// per-scheme ladder rungs are named after them.
var schemeNames = []string{"foMPI-Spin", "D-MCS", "RMA-MCS", "foMPI-RW", "RMA-RW"}

// rung metrics carry a companion ".spread" metric: the IQR of the
// rung's samples as a share of their median.
func rungDefs(name, unit string) []metricDef {
	return []metricDef{{name, unit, "lower"}, {name + ".spread", "ratio", "lower"}}
}

// perLayer are the single-layer metrics of a traced run, grouped by the
// package they measure.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(defs ...metricDef) { d = append(d, defs...) }
	// sim: scheduler work per acquisition and its two rungs.
	add(metricDef{"sim.handoffs_per_acquire", "count", "lower"},
		metricDef{"sim.blocks_per_acquire", "count", "lower"},
		metricDef{"sim.heap_bytes_per_rank", "B", "lower"})
	add(rungDefs("sim.advance_ns", "ns")...)
	add(rungDefs("sim.handoff_ns", "ns")...)
	// rma: operation mix per acquisition and one-op rungs.
	add(metricDef{"rma.ops_per_acquire", "count", "lower"})
	for _, k := range opKinds {
		add(metricDef{"rma." + k + "_per_acquire", "count", "lower"})
	}
	add(metricDef{"rma.flushes_per_op", "count", "lower"},
		metricDef{"rma.remote_frac", "ratio", "lower"})
	for _, op := range rungOps {
		add(rungDefs("rma."+op+"_ns", "ns")...)
		add(rungDefs("rma."+op+"_nocoalesce_ns", "ns")...)
	}
	// locks: one acquire/release per scheme, uncontended and contended.
	for _, s := range schemeNames {
		p := "locks." + s + "."
		add(rungDefs(p+"acquire_ns_p2", "ns")...)
		add(rungDefs(p+"acquire_ns_p64", "ns")...)
		add(metricDef{p + "handoffs_per_acquire", "count", "lower"},
			metricDef{p + "rma_ops_per_acquire", "count", "lower"},
			metricDef{p + "intra_node_handoff_frac", "ratio", "higher"})
	}
	// workload: harness phases per cell, from the obs phase spans.
	add(metricDef{"workload.setup_ms", "ms", "lower"},
		metricDef{"workload.run_ms", "ms", "lower"})
	// sweep: the worker pool, from a runner-side sweep.Progress.
	add(metricDef{"sweep.cell_wall_p50_ms", "ms", "lower"},
		metricDef{"sweep.cell_wall_p90_ms", "ms", "lower"},
		metricDef{"sweep.pool_busy_frac", "ratio", "higher"},
		metricDef{"sweep.enumerate_ms", "ms", "lower"})
	// cache: the result store behind the daemon, and its rungs.
	add(metricDef{"cache.get_us", "us", "lower"},
		metricDef{"cache.put_us", "us", "lower"})
	add(rungDefs("cache.store_get_us", "us")...)
	add(rungDefs("cache.store_put_us", "us")...)
	add(metricDef{"cache.hit_ratio", "ratio", "higher"},
		metricDef{"cache.retune_hit_ratio", "ratio", "higher"},
		metricDef{"cache.open_ms", "ms", "lower"},
		metricDef{"cache.bytes", "B", "lower"})
	// jobq: one daemon job, cold, warm and retuned.
	add(metricDef{"jobq.cold_s", "s", "lower"},
		metricDef{"jobq.warm_ms", "ms", "lower"},
		metricDef{"jobq.warm_p90_ms", "ms", "lower"},
		metricDef{"jobq.retune_ms", "ms", "lower"},
		metricDef{"jobq.submit_ms", "ms", "lower"},
		metricDef{"jobq.result_ms", "ms", "lower"},
		metricDef{"jobq.result_bytes", "B", "lower"},
		metricDef{"jobq.non_sweep_ms", "ms", "lower"})
	// model: the paper's metrics in virtual time (exact per seed).
	add(metricDef{"model.virt_mlocks_per_s", "Mlocks/s", "higher"},
		metricDef{"model.virt_lat_p99_us", "us", "lower"})
	add(metricDef{"trace.overhead", "ratio", "lower"})
	add(metricDef{"build.workbench_bytes", "B", "lower"},
		metricDef{"build.sweepd_bytes", "B", "lower"})
	return d
}()

// opKinds are the RMA operation kinds counted per acquisition, indexed
// like trace.OpPut..trace.OpCAS.
var opKinds = []string{"put", "get", "acc", "fao", "cas"}

// rungOps are the RMA operations of the one-op rungs.
var rungOps = []string{"put", "get", "cas"}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metric values and checks them against a declared
// metric list before they are emitted.
type metricSet map[string]float64

// emit returns the values of defs, failing when one is missing or a
// value is declared that defs does not list.
func (m metricSet) emit(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	var extra []string
	for k := range m {
		if _, ok := out[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}
