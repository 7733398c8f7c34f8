package main

import (
	"errors"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v, want IQR over the median", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10}, {[]float64{2, 8}, 4}, {[]float64{3}, 3}, {[]float64{0.5, 2, 1}, 1},
	} {
		got, err := geomean(c.xs)
		if err != nil || !near(got, c.want) {
			t.Errorf("geomean(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	for _, xs := range [][]float64{{1, 0}, {1, -2}, {math.NaN()}} {
		if _, err := geomean(xs); !errors.Is(err, errNonPositive) {
			t.Errorf("geomean(%v) error = %v, want errNonPositive", xs, err)
		}
	}
	if _, err := geomean(nil); err == nil {
		t.Error("geomean of nothing must fail")
	}
}

func TestRatioBases(t *testing.T) {
	if per(5, 0) != 0 || per(6, 3) != 2 {
		t.Fatal("per must divide by its base and read 0 on an empty base")
	}
	var c layerCounts
	c.acquired, c.dispatches, c.blocks, c.remote = 10, 90, 4, 30
	c.ops = [6]int64{20, 10, 0, 5, 5, 20} // put get acc fao cas flush
	m := metricSet{}
	c.put(m)
	want := map[string]float64{
		"sim.handoffs_per_acquire": 9,    // dispatches / acquisitions
		"sim.blocks_per_acquire":   0.4,  // blocks / acquisitions
		"rma.ops_per_acquire":      4,    // non-flush ops / acquisitions
		"rma.put_per_acquire":      2,    // puts / acquisitions
		"rma.acc_per_acquire":      0,    // none issued
		"rma.flushes_per_op":       0.5,  // flushes / non-flush ops
		"rma.remote_frac":          0.75, // remote / non-flush ops
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestEmitRequiresExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "1/s", "higher"}}
	if _, err := (metricSet{"a": 1}).emit(defs); err == nil {
		t.Error("a missing metric must fail")
	}
	if _, err := (metricSet{"a": 1, "b": 2, "c": 3}).emit(defs); err == nil {
		t.Error("an undeclared metric must fail")
	}
	out, err := (metricSet{"a": 1, "b": 2}).emit(defs)
	if err != nil || out["b"] != (value{2, "1/s"}) {
		t.Errorf("emit = %v, %v", out, err)
	}
}

func TestOtherSeedDiffersInEffect(t *testing.T) {
	// The machine layer runs seed 0 as seed 1.
	for seed, want := range map[int64]int64{0: 2, 1: 2, 5: 6, -1: 0} {
		if got := otherSeed(seed); got != want {
			t.Errorf("otherSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}
