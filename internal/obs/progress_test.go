package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestProgressNDJSONSchema walks a three-cell sweep through its
// lifecycle and checks the /progress payload at each step: one valid
// JSON object per line, cells in canonical order, and a summary line
// whose counts and ETA follow the transitions.
func TestProgressNDJSONSchema(t *testing.T) {
	p := NewSweepProgress("test sweep")
	p.Start([]string{"a/empty/uniform/P=16", "b/empty/uniform/P=16", "c/empty/uniform/P=16"})

	cells, sum := decodeProgress(t, p)
	if len(cells) != 3 {
		t.Fatalf("cell lines = %d, want 3", len(cells))
	}
	for i, c := range cells {
		if c.State != StateQueued {
			t.Fatalf("cell %d state = %q, want queued", i, c.State)
		}
	}
	if sum.Total != 3 || sum.Done != 0 || sum.Queued != 3 || sum.EtaMs != -1 {
		t.Fatalf("initial summary = %+v", sum)
	}

	p.CellRunning(0)
	p.CellRunning(1)
	p.CellDone(0, "fp-a", nil)
	cells, sum = decodeProgress(t, p)
	if cells[0].State != StateDone || cells[0].Fingerprint != "fp-a" {
		t.Fatalf("cell 0 = %+v", cells[0])
	}
	if cells[1].State != StateRunning || cells[2].State != StateQueued {
		t.Fatalf("cells = %+v", cells)
	}
	if sum.Done != 1 || sum.Running != 1 || sum.Queued != 1 || sum.EtaMs < 0 {
		t.Fatalf("mid summary = %+v", sum)
	}

	p.CellDone(1, "", errors.New("boom"))
	p.CellRunning(2)
	p.CellDone(2, "fp-c", nil)
	cells, sum = decodeProgress(t, p)
	if cells[1].State != StateFailed || cells[1].Error != "boom" {
		t.Fatalf("failed cell = %+v", cells[1])
	}
	if sum.Done != 3 || sum.Failed != 1 || sum.EtaMs != 0 {
		t.Fatalf("final summary = %+v", sum)
	}
}

// decodeProgress renders p and decodes every NDJSON line, failing on
// malformed JSON, a missing summary, or cells after the summary.
func decodeProgress(t *testing.T, p *SweepProgress) ([]CellLine, SummaryLine) {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var cells []CellLine
	var sum SummaryLine
	sawSummary := false
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after summary: %s", sc.Text())
		}
		// Distinguish line kinds by the summary marker field.
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe["summary"] == true {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var c CellLine
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		if c.Cell == "" || c.State == "" {
			t.Fatalf("cell line missing fields: %s", sc.Text())
		}
		cells = append(cells, c)
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	return cells, sum
}

// TestProgressNil drives the nil tracker (progress disabled).
func TestProgressNil(t *testing.T) {
	var p *SweepProgress
	p.Start([]string{"x"})
	p.CellRunning(0)
	p.CellDone(0, "fp", nil)
	if err := p.WriteNDJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestProgressOutOfRange checks stray indices are ignored, not panics.
func TestProgressOutOfRange(t *testing.T) {
	p := NewSweepProgress("")
	p.Start([]string{"only"})
	p.CellRunning(5)
	p.CellDone(-1, "", nil)
	_, sum := decodeProgress(t, p)
	if sum.Done != 0 || sum.Running != 0 {
		t.Fatalf("summary after stray indices = %+v", sum)
	}
}

// firstWriteSignal is a buffer that closes first on its first write.
type firstWriteSignal struct {
	bytes.Buffer
	first chan struct{}
	once  sync.Once
}

func (w *firstWriteSignal) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.first) })
	return w.Buffer.Write(b)
}

// TestStreamOpenedBeforeStart is the regression test for a follow stream
// that opens on a fresh tracker: its first snapshot has no cells, so the
// cells Start registers later must be streamed as transitions through
// to the final summary — not index past the stream's per-cell state
// while the tracker's lock is held, wedging every later update.
func TestStreamOpenedBeforeStart(t *testing.T) {
	p := NewSweepProgress("early")
	w := &firstWriteSignal{first: make(chan struct{})}
	errc := make(chan error, 1)
	go func() { errc <- p.StreamNDJSON(w, time.Millisecond, nil) }()
	<-w.first // the empty snapshot is out
	p.Start([]string{"c0", "c1"})
	p.CellRunning(0)
	p.CellDone(0, "fp0", nil)
	p.CellCached(1, "fp1")
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not finish after Start and every cell completed")
	}
	out := w.String()
	for _, want := range []string{`"fp0"`, `"fp1"`, `"done":2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream lacks %s:\n%s", want, out)
		}
	}
	// The tracker is still usable: its lock was released.
	if _, sum := decodeProgress(t, p); sum.Done != 2 {
		t.Fatalf("summary after stream: %+v", sum)
	}
}
