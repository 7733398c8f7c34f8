// Command perfbench is the repository benchmark. It runs one workload
// in-process through the public entry points of the simulator's layers
// (sweep.Run, workload.Run, sim.Scheduler.Run, rma.Machine.Run,
// cache.Store and the jobq HTTP API), checks every result, and prints a
// record followed by one JSON line with the metrics of BENCHMARK.json:
// the end-to-end metrics, or with -trace 1 the per-layer ones. It adds
// no instrumentation to the program; the traced run attaches the
// existing trace.Sink and obs.Metrics through their public fields.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rmalocks/internal/sweep"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest measured passes (or daemon rounds) a run
	// takes, however short --seconds is.
	minPasses = 3
	// warmJobs is the number of warm jobs per daemon round.
	warmJobs = 100
	// rungRounds is the number of daemon rounds of the traced run's
	// daemon rung on the workloads that do not drive the daemon.
	rungRounds = 2
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: grid, dht-rw, ranks64k or sweepd")
		seed    = flag.Int64("seed", 1, "input seed; reaches the program only as Grid.Seed")
		seconds = flag.Int("seconds", 15, "measured duration in seconds")
		traced  = flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
		root    = flag.String("root", ".", "repository root")
		state   = flag.String("state", ".bench_build", "directory for temporary caches and the digest ledger")
		bin     = flag.String("bin", "", "directory holding the built workbench and sweepd binaries (needed with -trace 1)")
		rev     = flag.String("rev", "none", "git revision of the checkout")
		dirty   = flag.String("dirty", "unknown", "whether the checkout had uncommitted changes")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload grid|dht-rw|ranks64k|sweepd, --seconds >= 1 and --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{
		w: w, seed: *seed, other: otherSeed(*seed),
		dur: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		workers: runtime.GOMAXPROCS(0), binDir: *bin,
		iters: w.grids(*seed)[0].Iters,
		e2e:   metricSet{}, layer: metricSet{}, record: metricSet{},
	}
	host, err := newHostBlock(*root, *seed, *rev, *dirty)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.tmp = filepath.Join(*state, "tmp", "perfbench-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	err = b.run(filepath.Join(*state, "perfbench-ledger.json"), host.SourceDigest)
	if rerr := os.RemoveAll(b.tmp); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.report(host)
}

// bench is one run of one workload.
type bench struct {
	w           workloadDef
	seed, other int64
	dur         time.Duration
	traced      bool
	workers     int
	iters       int
	binDir, tmp string

	chk                 checker
	digest, otherDigest string             // of the first pass and of the other seed
	digests             map[int64]string   // per grid seed measured, for the ledger
	seedCells           []sweep.Cell       // the first pass's cells
	reference           []sweep.CellResult // the first results at seed
	setupS, enumMs      []float64
	cellWalls, busy     []float64 // in-process cell walls and pool busy shares
	d                   *daemon
	rounds              []roundOutcome

	e2e, layer, record metricSet
}

func (b *bench) run(ledgerPath, src string) error {
	led, err := openLedger(ledgerPath)
	if err != nil {
		return err
	}
	if b.w.daemon {
		err = b.runDaemon()
	} else {
		err = b.runInProcess()
	}
	if err == nil && b.traced {
		err = b.traceLayers()
	}
	if b.d != nil {
		if cerr := b.d.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if err := checkSeedDigests(b.digest, b.otherDigest, b.w.seedInvariant); err != nil {
		b.chk.fail("seed digests", err)
	}
	for seed, d := range b.digests {
		key := fmt.Sprintf("%s/%s/seed=%d", src[:16], b.w.name, seed)
		if err := led.check(key, d); err != nil {
			b.chk.fail("digest across runs", err)
		}
	}
	return led.save()
}

// agree records d in *into on first use and fails the run when a later
// pass produces a different digest.
func (b *bench) agree(into *string, d, what string) {
	if *into == "" {
		*into = d
	} else if *into != d {
		b.chk.fail(what, fmt.Errorf("digest %s differs from %s", d[:12], (*into)[:12]))
	}
}

// checkPass checks every cell of an in-process pass (one operation each)
// and records its cell walls and pool busy share.
func (b *bench) checkPass(what string, pr passResult) {
	for _, r := range pr.results {
		b.chk.op(what+" "+r.Key.String(), checkCell(r, b.iters, b.w.writesEqualP))
	}
	var sum float64
	for _, w := range pr.cellWalls {
		sum += w
	}
	b.cellWalls = append(b.cellWalls, pr.cellWalls...)
	b.busy = append(b.busy, per(sum, float64(b.workers)*ms(pr.wall)))
}

// setupGrids enumerates the cells of the first measured pass and of the
// other seed, timing the former.
func (b *bench) setupGrids() (other []sweep.Cell, err error) {
	t := time.Now()
	cells, err := enumerate(b.w.grids(b.w.passSeed(b.seed, 0)))
	if err != nil {
		return nil, err
	}
	b.enumMs = append(b.enumMs, ms(time.Since(t)))
	b.seedCells = cells
	return enumerate(b.w.grids(b.w.passSeed(b.other, 0)))
}

// measured records the digest of a measured pass at grid seed seed.
// Passes that repeat a seed must agree; the first pass's digest is the
// one compared with the other seed's.
func (b *bench) measured(seed int64, d string) {
	if b.digests == nil {
		b.digests = map[int64]string{}
	}
	if prev, ok := b.digests[seed]; ok && prev != d {
		b.chk.fail("digest across passes", fmt.Errorf("seed %d: digest %s differs from %s", seed, d[:12], prev[:12]))
	} else if !ok {
		b.digests[seed] = d
	}
	if b.digest == "" {
		b.digest = d
	}
}

// runInProcess sets up (enumeration and a warm-up pass at the other
// seed) setupReps times, then sweeps the workload at the run seed until
// the measured duration is over.
func (b *bench) runInProcess() error {
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		other, err := b.setupGrids()
		if err != nil {
			return err
		}
		warm, err := runPass(other, b.workers)
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(t).Seconds())
		b.checkPass("warm-up", warm)
		b.agree(&b.otherDigest, digest(warm.results), "other-seed digest across set-ups")
	}
	b.cellWalls, b.busy = nil, nil // keep measured passes only

	var walls, cellRates, acqRates []float64
	var cells, acquires int64
	var wall time.Duration
	mem := startMemSampler()
	defer mem.close()
	t0 := time.Now()
	for n := 0; n < minPasses || time.Since(t0) < b.dur; n++ {
		seed, passCells := b.w.passSeed(b.seed, n), b.seedCells
		if n > 0 && b.w.cycleSeeds {
			var err error
			if passCells, err = enumerate(b.w.grids(seed)); err != nil {
				return err
			}
		}
		mem.startPass(n)
		pr, err := runPass(passCells, b.workers)
		if err != nil {
			return err
		}
		mem.endPass(n)
		b.checkPass("pass", pr)
		b.measured(seed, digest(pr.results))
		if b.reference == nil {
			b.reference = pr.results
		}
		walls = append(walls, ms(pr.wall))
		cellRates = append(cellRates, float64(len(pr.results))/pr.wall.Seconds())
		acqRates = append(acqRates, float64(pr.acquires)/pr.wall.Seconds())
		cells += int64(len(pr.results))
		acquires += pr.acquires
		wall += pr.wall
	}
	cellsPerS, acqPerS, passMs := median(cellRates), median(acqRates), median(walls)
	if b.w.cycleSeeds {
		// Passes at different seeds sample one distribution: the run's
		// figure is their pooled rate, not the median pass.
		cellsPerS = float64(cells) / wall.Seconds()
		acqPerS = float64(acquires) / wall.Seconds()
		passMs = ms(wall) / float64(len(walls))
	}
	b.putEndToEnd(cellsPerS, acqPerS, passMs, walls, mem)
	return nil
}

// runDaemon sets up (enumeration, cache and daemon start, an in-process
// reference pass at the run seed and a warm-up pass at the other seed)
// setupReps times, then drives closed-loop daemon rounds until the
// measured duration is over.
func (b *bench) runDaemon() error {
	for rep := 0; rep < setupReps; rep++ {
		if b.d != nil {
			if err := b.d.close(); err != nil {
				return err
			}
			b.d = nil
		}
		t := time.Now()
		other, err := b.setupGrids()
		if err != nil {
			return err
		}
		if b.d, err = startDaemon(filepath.Join(b.tmp, fmt.Sprintf("sweepd-%d", rep)), b.workers); err != nil {
			return err
		}
		ref, err := runPass(b.seedCells, b.workers)
		if err != nil {
			return err
		}
		warm, err := runPass(other, b.workers)
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(t).Seconds())
		b.checkPass("reference", ref)
		b.checkPass("warm-up", warm)
		b.measured(b.seed, digest(ref.results))
		b.agree(&b.otherDigest, digest(warm.results), "other-seed digest across set-ups")
		b.reference = ref.results
	}
	ref, err := newDaemonRef(b.seed, b.reference)
	if err != nil {
		return err
	}

	var cellRates, acqRates, warm []float64
	mem := startMemSampler()
	defer mem.close()
	t0 := time.Now()
	for n := 0; n < minPasses || time.Since(t0) < b.dur; n++ {
		mem.startPass(n)
		r, err := b.d.round(ref, warmJobs, &b.chk)
		if err != nil {
			return err
		}
		mem.endPass(n)
		b.rounds = append(b.rounds, r)
		cellRates = append(cellRates, float64(r.cells)/r.wall.Seconds())
		acqRates = append(acqRates, float64(r.computed)/r.wall.Seconds())
		for _, w := range r.warm {
			warm = append(warm, ms(w.wall))
		}
	}
	b.putEndToEnd(median(cellRates), median(acqRates), median(warm), warm, mem)
	jobs := jobMetrics(b.rounds)
	for _, k := range []string{"cold_s", "warm_ms", "warm_p90_ms", "retune_ms"} {
		b.record["job_"+k] = jobs["jobq."+k]
	}
	return nil
}

// putEndToEnd records the end-to-end metrics of the measured phase.
func (b *bench) putEndToEnd(cellsPerS, acqPerS, passMs float64, walls []float64, mem *memSampler) {
	sys, heap := mem.peaks()
	b.e2e["setup_s"] = median(b.setupS)
	b.e2e["cells_per_s"] = cellsPerS
	b.e2e["acquires_per_s"] = acqPerS
	b.e2e["pass_ms"] = passMs
	b.e2e["sys_bytes_per_rank"] = sys / float64(b.w.maxP)
	b.record["heap_bytes_per_rank"] = heap / float64(b.w.maxP)
	for k, v := range b.e2e {
		b.record[k] = v
	}
	if v, p, ok := tail(walls); ok {
		b.record[fmt.Sprintf("pass_p%g_ms", p)] = v
	}
	b.record["passes"] = float64(len(walls))
	b.putModel()
}

// putModel records the paper's metrics, in virtual time, as geomeans
// over the reference cells.
func (b *bench) putModel() {
	var thr, p99 []float64
	for _, r := range b.reference {
		thr = append(thr, r.Report.ThroughputMops)
		p99 = append(p99, r.Report.Latency.P99)
	}
	if v, err := geomean(thr); err == nil {
		b.record["virt_mlocks_per_s"] = v
	} else {
		b.chk.fail("virtual throughput", err)
	}
	if v, err := geomean(p99); err == nil {
		b.record["virt_lat_p99_us"] = v
	} else {
		b.chk.fail("virtual p99 latency", err)
	}
}

// traceLayers measures the per-layer metrics: the sweep pool from the
// in-process passes, the ladder rungs, one traced pass of the
// workload, and a daemon rung.
func (b *bench) traceLayers() error {
	m := b.layer
	m["sweep.cell_wall_p50_ms"] = median(b.cellWalls)
	m["sweep.cell_wall_p90_ms"] = quantile(b.cellWalls, 0.9)
	m["sweep.pool_busy_frac"] = median(b.busy)
	m["sweep.enumerate_ms"] = median(b.enumMs)
	m["sim.heap_bytes_per_rank"] = b.record["heap_bytes_per_rank"]
	for _, k := range []string{"virt_mlocks_per_s", "virt_lat_p99_us"} {
		if v, ok := b.record[k]; ok {
			m["model."+k] = v
		}
	}

	baseRef := b.reference
	if !b.w.daemon {
		cells, err := enumerate([]sweep.Grid{baseGrid(b.seed)})
		if err != nil {
			return err
		}
		pr, err := runPass(cells, b.workers)
		if err != nil {
			return err
		}
		for _, r := range pr.results {
			b.chk.op("daemon rung reference "+r.Key.String(), checkCell(r, baseGrid(b.seed).Iters, false))
		}
		baseRef = pr.results
	}
	if err := runLadder(m, b.seed, filepath.Join(b.tmp, "cache-rung"), baseRef[len(baseRef)/2]); err != nil {
		return err
	}
	if err := tracedPass(b.w.grids(b.w.passSeed(b.seed, 0)), b.seedCells, m, &b.chk); err != nil {
		return err
	}

	if !b.w.daemon {
		d, err := startDaemon(filepath.Join(b.tmp, "sweepd-rung"), b.workers)
		if err != nil {
			return err
		}
		b.d = d
		ref, err := newDaemonRef(b.seed, baseRef)
		if err != nil {
			return err
		}
		for i := 0; i < rungRounds; i++ {
			r, err := d.round(ref, warmJobs, &b.chk)
			if err != nil {
				return err
			}
			b.rounds = append(b.rounds, r)
		}
	}
	for k, v := range jobMetrics(b.rounds) {
		m[k] = v
	}
	b.d.putCacheMetrics(m, b.rounds)

	for _, bin := range []string{"workbench", "sweepd"} {
		st, err := os.Stat(filepath.Join(b.binDir, bin))
		if err != nil {
			return fmt.Errorf("build size (pass -bin): %w", err)
		}
		m["build."+bin+"_bytes"] = float64(st.Size())
	}
	return nil
}

// jobMetrics summarizes daemon rounds: medians over rounds for the cold
// and retune jobs, over every warm job for the rest.
func jobMetrics(rounds []roundOutcome) metricSet {
	var cold, retune, warm, submit, result, nonSweep []float64
	for _, r := range rounds {
		cold = append(cold, r.cold.wall.Seconds())
		retune = append(retune, ms(r.retune.wall))
		for _, w := range r.warm {
			warm = append(warm, ms(w.wall))
			submit = append(submit, ms(w.submit))
			result = append(result, ms(w.result))
			// A warm job runs no cell: all but its cache calls is the
			// daemon's own overhead (HTTP, encoding, events).
			nonSweep = append(nonSweep, ms(w.wall-w.cache.callTime))
		}
	}
	m := metricSet{
		"jobq.cold_s":       median(cold),
		"jobq.warm_ms":      median(warm),
		"jobq.warm_p90_ms":  quantile(warm, 0.9),
		"jobq.retune_ms":    median(retune),
		"jobq.submit_ms":    median(submit),
		"jobq.result_ms":    median(result),
		"jobq.non_sweep_ms": median(nonSweep),
	}
	if len(rounds) > 0 {
		m["jobq.result_bytes"] = float64(len(rounds[0].cold.data))
	}
	return m
}

// putCacheMetrics records the result-store metrics of the rounds.
func (d *daemon) putCacheMetrics(m metricSet, rounds []roundOutcome) {
	c := d.cache
	c.mu.Lock()
	m["cache.get_us"] = median(c.getUs)
	m["cache.put_us"] = median(c.putUs)
	m["cache.hit_ratio"] = per(float64(c.hits), float64(c.hits+c.misses))
	c.mu.Unlock()
	var rt []float64
	for _, r := range rounds {
		rt = append(rt, per(float64(r.retune.cache.hits), float64(r.retune.status.Cells)))
	}
	m["cache.retune_hit_ratio"] = median(rt)
	m["cache.open_ms"] = median(d.openMs)
	m["cache.bytes"] = d.cacheBytes()
}

// report prints the run's record, then the result line, and returns
// the exit code: non-zero when any check failed.
func (b *bench) report(host hostBlock) int {
	b.record["fail_ratio"] = per(float64(b.chk.failed), float64(b.chk.attempted))
	defs, set := endToEnd, b.e2e
	if b.traced {
		defs, set = perLayer, b.layer
	}
	metrics, err := set.emit(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec := struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		OtherSeed   int64              `json:"other_seed"`
		Traced      bool               `json:"traced"`
		Host        hostBlock          `json:"host"`
		Digest      string             `json:"digest"`
		OtherDigest string             `json:"other_digest"`
		Metrics     map[string]float64 `json:"metrics"`
		Errors      []string           `json:"errors,omitempty"`
	}{b.w.name, b.seed, b.other, b.traced, host, b.digest, b.otherDigest, b.record, b.chk.errs}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.chk.ok(), b.chk.attempted, b.chk.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !b.chk.ok() {
		return 1
	}
	return 0
}
