package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rmalocks/internal/cache"
	"rmalocks/internal/jobq"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// jobLabel labels every job and every in-process reference RunFile, so
// their encodings can be compared byte for byte.
const jobLabel = "perfbench"

// timedCache wraps the ResultStore handed to the job manager: it times
// every Get and Put and counts hits, and it can swap in an empty store,
// which turns the next job into a cold one without restarting the
// daemon.
type timedCache struct {
	store atomic.Pointer[cache.ResultStore]

	mu       sync.Mutex
	getUs    []float64
	putUs    []float64
	hits     int64
	misses   int64
	callTime time.Duration
	computed int64 // acquisitions of the cells stored, i.e. simulated
}

func (c *timedCache) Get(input string) (sweep.CellResult, bool) {
	t := time.Now()
	r, ok := c.store.Load().Get(input)
	d := time.Since(t)
	c.mu.Lock()
	c.getUs = append(c.getUs, us(d))
	c.callTime += d
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return r, ok
}

func (c *timedCache) Put(input string, r sweep.CellResult) {
	t := time.Now()
	c.store.Load().Put(input, r)
	d := time.Since(t)
	c.mu.Lock()
	c.putUs = append(c.putUs, us(d))
	c.callTime += d
	c.computed += r.Report.Ops + r.Report.WarmupOps
	c.mu.Unlock()
}

// cacheCounts is a snapshot of the wrapper's counters.
type cacheCounts struct {
	hits, misses, computed int64
	callTime               time.Duration
}

func (c *timedCache) counts() cacheCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounts{c.hits, c.misses, c.computed, c.callTime}
}

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{a.hits - b.hits, a.misses - b.misses, a.computed - b.computed, a.callTime - b.callTime}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// daemon is sweepd assembled in-process from the constructors
// cmd/sweepd uses, served on loopback and driven by one HTTP client
// over a single connection.
type daemon struct {
	mgr    *jobq.Manager
	srv    *obs.Server
	cache  *timedCache
	client *http.Client
	base   string
	dir    string // parent of the cache directories
	dirs   int
	openMs []float64
}

func startDaemon(dir string, workers int) (*daemon, error) {
	d := &daemon{cache: &timedCache{}, dir: dir}
	if err := d.freshCache(); err != nil {
		return nil, err
	}
	metrics := obs.NewMetrics()
	multi := obs.NewMultiProgress()
	d.mgr = jobq.NewManager(jobq.Config{
		Workers: workers,
		MaxJobs: 1,
		Cache:   d.cache,
		Obs:     metrics,
		Multi:   multi,
	})
	d.srv = obs.NewServer(metrics.Registry, multi)
	jobq.NewAPI(d.mgr).Mount(d.srv)
	if err := d.srv.Listen("127.0.0.1:0"); err != nil {
		d.mgr.Shutdown()
		return nil, err
	}
	d.base = "http://" + d.srv.Addr()
	d.client = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return d, nil
}

// freshCache opens an empty store in a new directory and swaps it in,
// deleting the previous store's directory.
func (d *daemon) freshCache() error {
	d.dirs++
	dir := filepath.Join(d.dir, fmt.Sprintf("cache-%d", d.dirs))
	t := time.Now()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		return fmt.Errorf("open cache: %w", err)
	}
	d.openMs = append(d.openMs, ms(time.Since(t)))
	d.cache.store.Store(cache.NewResultStore(store))
	if d.dirs > 1 {
		return os.RemoveAll(filepath.Join(d.dir, fmt.Sprintf("cache-%d", d.dirs-1)))
	}
	return nil
}

func (d *daemon) cacheBytes() float64 { return float64(d.cache.store.Load().Store().Stats().Bytes) }

// requestTimeout bounds every request and every wait on the daemon, so
// a wedged job fails the run instead of hanging it.
const requestTimeout = 60 * time.Second

// close drains the manager, stops the server and deletes the caches. A
// manager that does not drain in time (a wedged job) is an error.
func (d *daemon) close() error {
	drained := make(chan struct{})
	go func() {
		d.mgr.Shutdown()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(requestTimeout):
		return errors.New("sweepd: job manager did not drain")
	}
	err := d.srv.Close()
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	wall, submit, result time.Duration
	data                 []byte
	status               jobq.Status
	cache                cacheCounts
}

// job submits a wire-encoded grid and returns its result bytes. It
// waits for completion on the job's /events stream; the time is taken
// from the submit request to the last result byte.
func (d *daemon) job(body []byte) (jobOutcome, error) {
	var o jobOutcome
	before := d.cache.counts()
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/jobs?label="+url.QueryEscape(jobLabel), "application/json", bytes.NewReader(body))
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	raw, err := readBody(resp, http.StatusCreated)
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	o.submit = time.Since(t0)
	var st jobq.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	if err := d.awaitStart(st.ID); err != nil {
		return o, err
	}
	// The events stream ends when every cell is terminal, which can
	// precede the job's own state change by a moment: a 409 re-opens the
	// (then immediately ending) stream rather than sleeping.
	for try := 0; ; try++ {
		if err := d.drain("/jobs/" + st.ID + "/events?interval_ms=1"); err != nil {
			return o, fmt.Errorf("events: %w", err)
		}
		tr := time.Now()
		resp, err := d.client.Get(d.base + "/jobs/" + st.ID + "/result")
		if err != nil {
			return o, fmt.Errorf("result: %w", err)
		}
		if resp.StatusCode == http.StatusConflict && try < 1000 {
			readBody(resp, http.StatusConflict) //nolint:errcheck // body of a retried request
			continue
		}
		o.data, err = readBody(resp, http.StatusOK)
		if err != nil {
			return o, fmt.Errorf("result: %w", err)
		}
		o.result = time.Since(tr)
		break
	}
	o.wall = time.Since(t0)
	o.cache = d.cache.counts().sub(before)
	resp, err = d.client.Get(d.base + "/jobs/" + st.ID)
	if err != nil {
		return o, fmt.Errorf("status: %w", err)
	}
	raw, err = readBody(resp, http.StatusOK)
	if err != nil {
		return o, fmt.Errorf("status: %w", err)
	}
	if err := json.Unmarshal(raw, &o.status); err != nil {
		return o, fmt.Errorf("status: %w", err)
	}
	return o, nil
}

// awaitStart returns once the job's progress tracker has started: it
// has resolved a cell or reached a terminal state. An /events stream
// opened before the tracker starts sizes its state table from the
// empty pre-start snapshot and then panics on the first transition,
// holding the tracker's lock, which wedges the job for good (a defect of
// internal/obs SweepProgress.StreamNDJSON). Until it is fixed the client
// waits here, on the status endpoint, before following the events.
func (d *daemon) awaitStart(id string) error {
	deadline := time.Now().Add(requestTimeout)
	for time.Now().Before(deadline) {
		resp, err := d.client.Get(d.base + "/jobs/" + id)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		raw, err := readBody(resp, http.StatusOK)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		var st jobq.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.Done > 0 || (st.State != jobq.StateQueued && st.State != jobq.StateRunning) {
			return nil
		}
	}
	return fmt.Errorf("job %s did not start within %v", id, requestTimeout)
}

// drain reads a streaming endpoint to its end.
func (d *daemon) drain(path string) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// readBody reads and closes a response, failing on an unexpected status.
func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// daemonRef holds what a round checks the daemon's answers against.
type daemonRef struct {
	base, retune []byte // wire-encoded grids
	cold         []byte // sweep.Encode of the in-process base-grid result
	retuneBytes  []byte // the first round's retune result
}

// roundOutcome is one closed-loop round: a cold job, a retune job and
// `warm` warm jobs of the base grid.
type roundOutcome struct {
	wall      time.Duration
	cells     int
	cold      jobOutcome
	retune    jobOutcome
	warm      []jobOutcome
	computed  int64 // simulated acquisitions
	cacheOpen float64
}

// round empties the cache and drives one closed-loop round, checking
// every answer. Each job is one operation of chk.
func (d *daemon) round(ref *daemonRef, warm int, chk *checker) (roundOutcome, error) {
	var r roundOutcome
	if err := d.freshCache(); err != nil {
		return r, err
	}
	r.cacheOpen = d.openMs[len(d.openMs)-1]
	before := d.cache.counts()
	t0 := time.Now()

	cold, err := d.job(ref.base)
	if err != nil {
		return r, fmt.Errorf("cold job: %w", err)
	}
	chk.op("sweepd cold job", checkBytes(cold.data, ref.cold))
	r.cold = cold

	rt, err := d.job(ref.retune)
	if err != nil {
		return r, fmt.Errorf("retune job: %w", err)
	}
	var rerr error
	switch {
	case rt.status.Cached != retuneCached || rt.cache.hits != retuneCached:
		rerr = fmt.Errorf("served %d cells from cache (%d hits), want %d of %d",
			rt.status.Cached, rt.cache.hits, retuneCached, rt.status.Cells)
	case ref.retuneBytes == nil:
		ref.retuneBytes = rt.data
	default:
		rerr = checkBytes(rt.data, ref.retuneBytes)
	}
	chk.op("sweepd retune job", rerr)
	r.retune = rt

	for i := 0; i < warm; i++ {
		w, err := d.job(ref.base)
		if err != nil {
			return r, fmt.Errorf("warm job: %w", err)
		}
		werr := checkBytes(w.data, cold.data)
		if werr == nil && w.cache.misses != 0 {
			werr = fmt.Errorf("warm job missed the cache %d times", w.cache.misses)
		}
		chk.op("sweepd warm job", werr)
		r.warm = append(r.warm, w)
	}
	r.wall = time.Since(t0)
	r.cells = cold.status.Cells + rt.status.Cells
	for _, w := range r.warm {
		r.cells += w.status.Cells
	}
	r.computed = d.cache.counts().sub(before).computed
	return r, nil
}

// newDaemonRef encodes the base and retune grids and the in-process
// reference result the cold job must reproduce.
func newDaemonRef(seed int64, reference []sweep.CellResult) (*daemonRef, error) {
	base, err := sweep.EncodeGrid(baseGrid(seed))
	if err != nil {
		return nil, err
	}
	retune, err := sweep.EncodeGrid(retuneGrid(seed))
	if err != nil {
		return nil, err
	}
	cold, err := sweep.Encode(sweep.RunFile{Label: jobLabel, Cells: reference})
	if err != nil {
		return nil, err
	}
	return &daemonRef{base: base, retune: retune, cold: cold}, nil
}
