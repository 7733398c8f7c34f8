package jobq_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rmalocks/internal/cache"
	"rmalocks/internal/jobq"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// newTestServer wires the full daemon stack — metrics, cache, multi
// progress, manager, job API — onto an httptest server, exactly as
// cmd/sweepd assembles it.
func newTestServer(t *testing.T) (*httptest.Server, *jobq.Manager, *cache.Store) {
	t.Helper()
	metrics := obs.NewMetrics()
	store, _, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Register(metrics.Registry)
	multi := obs.NewMultiProgress()
	mgr := jobq.NewManager(jobq.Config{
		Workers: 4, MaxJobs: 2,
		Cache: cache.NewResultStore(store),
		Obs:   metrics, Multi: multi,
	})
	srv := obs.NewServer(metrics.Registry, multi)
	jobq.NewAPI(mgr).Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); mgr.Shutdown() })
	return ts, mgr, store
}

func submitGrid(t *testing.T, ts *httptest.Server, label string) jobq.Status {
	t.Helper()
	body, err := sweep.EncodeGrid(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs?label="+label, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, raw)
	}
	var st jobq.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func awaitState(t *testing.T, ts *httptest.Server, id, want string) jobq.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobq.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		switch st.State {
		case jobq.StateFailed, jobq.StateCanceled, jobq.StateDone:
			t.Fatalf("job %s reached terminal state %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitResultEvents(t *testing.T) {
	ts, _, _ := newTestServer(t)
	st := submitGrid(t, ts, "api-test")
	if st.ID == "" || st.Cells == 0 {
		t.Fatalf("created job status %+v lacks id/cells", st)
	}
	awaitState(t, ts, st.ID, jobq.StateDone)

	// Result bytes must equal a direct local run of the same grid.
	results, err := sweep.Run(mustCells(t, testGrid()), sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Encode(sweep.RunFile{Label: "api-test", Cells: results})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fetched result differs from direct local run bytes")
	}

	// The events stream of a finished job replays terminal states and a
	// final summary, then ends on its own.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/events?interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(events)), "\n")
	if len(lines) != st.Cells+1 {
		t.Fatalf("events stream has %d lines, want %d cells + summary", len(lines), st.Cells)
	}
	var sum obs.SummaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Summary || sum.Done != st.Cells || sum.EtaMs != 0 {
		t.Fatalf("final summary %+v, want done=%d eta=0", sum, st.Cells)
	}

	// The jobs list includes it.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobq.Status
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("GET /jobs = %+v (%v), want the one job", list, err)
	}
}

func TestHTTPCacheHitsAcrossSubmissions(t *testing.T) {
	ts, _, store := newTestServer(t)
	st1 := submitGrid(t, ts, "cold")
	awaitState(t, ts, st1.ID, jobq.StateDone)
	st2 := submitGrid(t, ts, "warm")
	fin := awaitState(t, ts, st2.ID, jobq.StateDone)
	if fin.Cached != fin.Cells {
		t.Fatalf("warm job cached %d/%d cells", fin.Cached, fin.Cells)
	}
	// /metrics exposes the counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, m := range []string{"sweepd_cache_hits_total", "sweepd_cache_misses_total", "sweepd_cache_evictions_total", "sweepd_cache_bytes"} {
		if !strings.Contains(text, m) {
			t.Errorf("/metrics missing %s", m)
		}
	}
	if st := store.Stats(); st.Hits != int64(fin.Cells) {
		t.Errorf("store hits = %d, want %d", st.Hits, fin.Cells)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, mgr, _ := newTestServer(t)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/jobs/no-such-job"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := get("/jobs/no-such-job/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}

	// Malformed grid JSON → 400 with a JSON error body.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "error") {
		t.Errorf("bogus grid: %d %s, want 400 + error body", resp.StatusCode, raw)
	}

	// A job canceled before completion serves 410 for its result.
	j, err := mgr.Submit(testGrid(), "to-cancel")
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	<-j.Done()
	if st := j.Status(); st.State == jobq.StateCanceled {
		if code := get("/jobs/" + j.ID + "/result"); code != http.StatusGone {
			t.Errorf("canceled job result = %d, want 410", code)
		}
	}

	// The index page lists the mounted job routes.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "/jobs") {
		t.Errorf("index page does not list /jobs: %q", raw)
	}
}

// TestHTTPUnknownEngine: a grid naming no scheduler engine is refused
// at submission with 400 and an error body naming the engine, and no
// job is admitted, so no sweep worker ever builds a machine for it.
// The daemon keeps serving: a valid grid submitted afterwards runs to
// completion.
func TestHTTPUnknownEngine(t *testing.T) {
	ts, mgr, _ := newTestServer(t)
	for _, engine := range []string{"psim", "des"} {
		g := testGrid()
		g.Engine = engine
		body, err := sweep.EncodeGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), engine) {
			t.Errorf("engine %q: %d %s, want 400 + error naming the engine", engine, resp.StatusCode, raw)
		}
	}
	if n := len(mgr.Statuses()); n != 0 {
		t.Fatalf("%d jobs admitted, want none", n)
	}
	st := submitGrid(t, ts, "after-bad-engine")
	awaitState(t, ts, st.ID, jobq.StateDone)
}

func TestHTTPProgressFanIn(t *testing.T) {
	ts, _, _ := newTestServer(t)
	st1 := submitGrid(t, ts, "a")
	awaitState(t, ts, st1.ID, jobq.StateDone)
	st2 := submitGrid(t, ts, "b")
	awaitState(t, ts, st2.ID, jobq.StateDone)

	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// Per job: cells + summary; plus one trailing aggregate summary.
	if want := 2*(st1.Cells+1) + 1; len(lines) != want {
		t.Fatalf("/progress has %d lines, want %d", len(lines), want)
	}
	var agg obs.SummaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Total != 2*st1.Cells || agg.Done != agg.Total || agg.EtaMs != 0 {
		t.Fatalf("aggregate summary %+v, want total=done=%d eta=0", agg, 2*st1.Cells)
	}
	// Cell lines carry their owning job's name.
	var first obs.CellLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Job != st1.ID {
		t.Fatalf("first cell line job = %q, want %q", first.Job, st1.ID)
	}
}

// TestHTTPEventsFollowedFromSubmit follows each job's events the moment
// its POST returns. A gated cache holds the first job running, so the
// second is still queued when its stream opens: the stream's first
// snapshot has no cells, and it must still carry the job through to its
// terminal summary once the gate opens.
func TestHTTPEventsFollowedFromSubmit(t *testing.T) {
	gate := &gateCache{release: make(chan struct{})}
	multi := obs.NewMultiProgress()
	mgr := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: gate, Multi: multi})
	srv := obs.NewServer(nil, multi)
	jobq.NewAPI(mgr).Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer mgr.Shutdown()
	defer ts.Close()
	defer func() {
		select {
		case <-gate.release:
		default:
			close(gate.release) // a failed test must not hold Shutdown
		}
	}()

	client := &http.Client{Timeout: 30 * time.Second}
	var streams []*http.Response
	var jobs []jobq.Status
	for _, label := range []string{"first", "queued"} {
		st := submitGrid(t, ts, label)
		// Get returns once the handler has flushed its first snapshot.
		resp, err := client.Get(ts.URL + "/jobs/" + st.ID + "/events?interval_ms=5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		streams = append(streams, resp)
		jobs = append(jobs, st)
	}
	close(gate.release)
	for i, resp := range streams {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("job %s events: %v after %q", jobs[i].ID, err, raw)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var sum obs.SummaryLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("job %s events: last line %q: %v", jobs[i].ID, lines[len(lines)-1], err)
		}
		if !sum.Summary || sum.Total != jobs[i].Cells || sum.Done != sum.Total {
			t.Fatalf("job %s final summary %+v, want done=total=%d", jobs[i].ID, sum, jobs[i].Cells)
		}
	}
}
