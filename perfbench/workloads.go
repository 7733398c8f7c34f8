package main

import (
	"sync"
	"time"

	"rmalocks/internal/sweep"
)

// workloadDef is one benchmark workload: the grids it sweeps and the
// properties its correctness checks rely on. Why each was chosen is in
// BENCHMARK.json and METRICS.md.
type workloadDef struct {
	name string
	// grids are the workload's sweep grids for one seed; the seed is the
	// only input that varies between runs.
	grids func(seed int64) []sweep.Grid
	// maxP is the largest process count of any cell: the base of the
	// per-rank memory metrics.
	maxP int
	// daemon marks the workload whose passes are sweepd jobs.
	daemon bool
	// seedInvariant marks a workload whose cells draw no randomness, so
	// its results must be identical for every seed.
	seedInvariant bool
	// cycleSeeds gives every measured pass its own grid seed, derived
	// from the run seed (passSeed): the workload's host cost depends so
	// much on the seed that repeating one seed measures the seed, not
	// the code.
	cycleSeeds bool
	// writesEqualP marks a workload whose cells run one all-write
	// iteration per rank.
	writesEqualP bool
}

// baseGrid is the Makefile's SWEEP_FLAGS grid with the workbench
// defaults: 5 schemes × empty × 4 profiles × P ∈ {16,32,64}, fw 0.1.
func baseGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Schemes:   schemeNames,
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf", "bursty", "sweep"},
		Ps:        []int{16, 32, 64},
		Iters:     50,
		FW:        0.1,
		Locks:     8,
		ZipfS:     1.2,
		Seed:      seed,
		SeedSet:   true,
	}
}

// retuneGrid is baseGrid resubmitted with T_R = 900: only the RMA-RW
// cells accept TR, so 48 of its 60 cells keep their cache address.
func retuneGrid(seed int64) sweep.Grid {
	g := baseGrid(seed)
	g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{900}}}
	return g
}

// dhtGrid is the paper's §5.3 distributed hashtable at P = 256.
func dhtGrid(seed int64, fw float64) sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{"foMPI-RW", "RMA-RW"},
		Workloads: []string{"dht"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{256},
		Iters:     50,
		FW:        fw,
		Locks:     8,
		ZipfS:     1.2,
		Seed:      seed,
		SeedSet:   true,
	}
}

// retuneCached is how many of the retune grid's cells the cold base
// grid already cached (all but the 12 RMA-RW cells).
const retuneCached = 48

var workloads = []workloadDef{
	{name: "grid", maxP: 64,
		grids: func(seed int64) []sweep.Grid { return []sweep.Grid{baseGrid(seed)} }},
	{name: "dht-rw", maxP: 256, cycleSeeds: true,
		grids: func(seed int64) []sweep.Grid {
			return []sweep.Grid{dhtGrid(seed, 0.02), dhtGrid(seed, 0.2)}
		}},
	{name: "ranks64k", maxP: 1 << 16, seedInvariant: true, writesEqualP: true,
		grids: func(seed int64) []sweep.Grid {
			return []sweep.Grid{{
				Schemes: []string{"RMA-MCS"}, Workloads: []string{"empty"},
				Profiles: []string{"uniform"}, Ps: []int{1 << 16},
				Iters: 1, FW: 1, Locks: 1, Seed: seed, SeedSet: true,
			}}
		}},
	{name: "sweepd", maxP: 64, daemon: true,
		grids: func(seed int64) []sweep.Grid { return []sweep.Grid{baseGrid(seed)} }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// otherSeed returns a seed whose simulation differs from seed's: the
// machine layer treats seed 0 as 1, so 0 and 1 are the same run.
func otherSeed(seed int64) int64 {
	eff := func(s int64) int64 {
		if s == 0 {
			return 1
		}
		return s
	}
	o := seed + 1
	if eff(o) == eff(seed) {
		o = seed + 2
	}
	return o
}

// passSeed is the grid seed of measured pass i: the run seed itself,
// or for a cycling workload a distinct seed per pass, disjoint between
// run seeds and never 0 (which the machine layer runs as 1).
func (w workloadDef) passSeed(seed int64, i int) int64 {
	if !w.cycleSeeds {
		return seed
	}
	return seed*1000 + int64(i) + 1
}

// enumerate expands grids into one cell list, grid after grid.
func enumerate(grids []sweep.Grid) ([]sweep.Cell, error) {
	var out []sweep.Cell
	for _, g := range grids {
		cells, err := g.Cells()
		if err != nil {
			return nil, err
		}
		out = append(out, cells...)
	}
	return out, nil
}

// passResult is one in-process pass over a workload's grids.
type passResult struct {
	wall      time.Duration
	results   []sweep.CellResult
	acquires  int64
	cellWalls []float64 // ms, per executed cell
}

// runPass sweeps cells on a pool of workers in one sweep.Run call,
// timing each cell through a runner-side sweep.Progress.
func runPass(cells []sweep.Cell, workers int) (passResult, error) {
	var pr passResult
	prog := &cellTimer{}
	t0 := time.Now()
	res, err := sweep.Run(cells, sweep.Options{Workers: workers, Progress: prog})
	if err != nil {
		return pr, err
	}
	pr.wall = time.Since(t0)
	pr.results = res
	pr.cellWalls = prog.walls
	for _, r := range pr.results {
		pr.acquires += r.Report.Ops + r.Report.WarmupOps
	}
	return pr, nil
}

// cellTimer implements sweep.Progress, recording each cell's wall time
// from CellRunning to CellDone.
type cellTimer struct {
	mu     sync.Mutex
	starts []time.Time
	walls  []float64
}

func (c *cellTimer) Start(keys []string) {
	c.mu.Lock()
	c.starts = make([]time.Time, len(keys))
	c.mu.Unlock()
}

func (c *cellTimer) CellRunning(i int) {
	c.mu.Lock()
	c.starts[i] = time.Now()
	c.mu.Unlock()
}

func (c *cellTimer) CellCached(int, string) {}

func (c *cellTimer) CellDone(i int, _ string, err error) {
	c.mu.Lock()
	if err == nil {
		c.walls = append(c.walls, ms(time.Since(c.starts[i])))
	}
	c.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
