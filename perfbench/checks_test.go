package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// smallCell runs one real 16-rank cell.
func smallCell(t *testing.T) sweep.CellResult {
	t.Helper()
	g := baseGrid(1)
	g.Schemes, g.Profiles, g.Ps = []string{"RMA-RW"}, []string{"zipf"}, []int{16}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(cells, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestCheckCellRejectsBrokenOpCounts(t *testing.T) {
	r := smallCell(t)
	if err := checkCell(r, 50, false); err != nil {
		t.Fatalf("a real cell must pass: %v", err)
	}
	tamper := func(f func(*workload.Report)) sweep.CellResult {
		c := r
		f(&c.Report)
		return c
	}
	for name, bad := range map[string]sweep.CellResult{
		"reads+writes != ops": tamper(func(rep *workload.Report) { rep.Writes++ }),
		"ops != P×iters":      tamper(func(rep *workload.Report) { rep.Ops--; rep.Reads-- }),
		"fingerprint":         tamper(func(rep *workload.Report) { rep.ThroughputMops *= 2 }),
	} {
		if err := checkCell(bad, 50, false); err == nil {
			t.Errorf("%s: tampered report passed", name)
		}
	}
	if err := checkCell(r, 50, true); err == nil {
		t.Error("writes != P must fail the ranks64k rule")
	}
}

func TestCheckBytesRejectsAFlippedByte(t *testing.T) {
	a := []byte(`{"cells":[{"fingerprint":"x"}]}`)
	b := append([]byte(nil), a...)
	b[12] ^= 1
	err := checkBytes(b, a)
	if err == nil || !strings.Contains(err.Error(), "offset 12") {
		t.Errorf("flipped byte: %v", err)
	}
	if checkBytes(a[:5], a) == nil {
		t.Error("a truncated result must fail")
	}
	if err := checkBytes(a, append([]byte(nil), a...)); err != nil {
		t.Error(err)
	}
}

func TestDigestChecks(t *testing.T) {
	r := smallCell(t)
	d := digest([]sweep.CellResult{r})
	r2 := r
	r2.Fingerprint += " "
	if digest([]sweep.CellResult{r2}) == d {
		t.Error("digest ignores the fingerprint")
	}
	if checkSeedDigests(d, d, false) == nil {
		t.Error("equal digests for two seeds must fail a seeded workload")
	}
	if checkSeedDigests(d, d+"0", true) == nil {
		t.Error("a seed-invariant workload must not change with the seed")
	}
	if checkSeedDigests(d, d+"0", false) != nil || checkSeedDigests(d, d, true) != nil {
		t.Error("valid digests rejected")
	}

	path := filepath.Join(t.TempDir(), "ledger.json")
	l, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.check("k", d); err != nil {
		t.Fatal(err)
	}
	if err := l.save(); err != nil {
		t.Fatal(err)
	}
	l, err = openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.check("k", d); err != nil {
		t.Errorf("same digest across runs rejected: %v", err)
	}
	if err := l.check("k", digest([]sweep.CellResult{r2})); err == nil {
		t.Error("a digest mismatch across runs must fail")
	}
}

func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the runner %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestDaemonRoundChecksEveryAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a 60-cell daemon round")
	}
	cells, err := enumerate([]sweep.Grid{baseGrid(1)})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := runPass(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ref, err := newDaemonRef(1, pr.results)
	if err != nil {
		t.Fatal(err)
	}
	var chk checker
	r, err := d.round(ref, 2, &chk)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.ok() || chk.attempted != 4 {
		t.Fatalf("round: %d ops, errors %v", chk.attempted, chk.errs)
	}
	if r.retune.status.Cached != retuneCached || r.cells != 4*60 {
		t.Errorf("retune cached %d, round cells %d", r.retune.status.Cached, r.cells)
	}

	// A reference that differs by one byte fails the cold job only.
	ref.cold[len(ref.cold)/2] ^= 1
	chk = checker{}
	if _, err := d.round(ref, 1, &chk); err != nil {
		t.Fatal(err)
	}
	if chk.failed != 1 || !strings.HasPrefix(chk.errs[0], "sweepd cold job") {
		t.Errorf("tampered reference: failed %d, errors %v", chk.failed, chk.errs)
	}
}
