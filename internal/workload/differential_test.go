package workload_test

// Differential determinism suite: the token-owned fast-path scheduler
// (internal/sim) against the reference engine (internal/sim/refsim), and
// charge coalescing (internal/rma) against uncoalesced charging. For
// every lock scheme × contention profile cell, all four engine/coalesce
// combinations must produce byte-identical reports and equal MaxClock —
// the fast path and the coalescer are pure optimisations, never allowed
// to change a single virtual-time decision. Run under -race in CI to
// also exercise the fast path's lock-free clock increments.

import (
	"fmt"
	"strings"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// diffProfiles returns fresh instances of every contention generator
// (profiles are stateless values, but build them per call anyway).
func diffProfiles() []workload.Profile {
	return []workload.Profile{
		workload.Uniform{FW: 0.2, NumLocks: 4},
		workload.NewZipf(4, 1.2, 0.3),
		workload.Bursty{FW: 0.3, Desync: true},
		workload.RWSweep{FWStart: 0, FWEnd: 1, Span: 12},
	}
}

type engineCase struct {
	name       string
	engine     string
	noCoalesce bool
}

var engineCases = []engineCase{
	{"fast", rma.EngineFast, false},
	{"fast-nocoalesce", rma.EngineFast, true},
	{"ref", rma.EngineRef, false},
	{"ref-nocoalesce", rma.EngineRef, true},
}

func TestDifferentialEnginesAllSchemesProfiles(t *testing.T) {
	for _, scheme := range workload.Schemes {
		for pi := range diffProfiles() {
			scheme, pi := scheme, pi
			t.Run(fmt.Sprintf("%s/%s", scheme, diffProfiles()[pi].Name()), func(t *testing.T) {
				t.Parallel()
				var baseFP string
				var baseClock int64
				for i, ec := range engineCases {
					spec := workload.Spec{
						Scheme: scheme,
						P:      16, ProcsPerNode: 4,
						Seed:     11,
						Iters:    12,
						Profile:  diffProfiles()[pi],
						Workload: &workload.SharedOp{},
						Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
					}
					rep, err := workload.Run(spec)
					if err != nil {
						t.Fatalf("%s: %v", ec.name, err)
					}
					fp := rep.Fingerprint()
					if i == 0 {
						baseFP, baseClock = fp, rep.MaxClock
						continue
					}
					if fp != baseFP {
						t.Errorf("%s diverged from %s:\n a: %s\n b: %s",
							ec.name, engineCases[0].name, baseFP, fp)
					}
					if rep.MaxClock != baseClock {
						t.Errorf("%s MaxClock %d != %d", ec.name, rep.MaxClock, baseClock)
					}
				}
			})
		}
	}
}

// semanticLines renders the merged event stream one event per line with
// every semantically meaningful field: clock, rank, kind, args. Two
// normalizations against raw WriteCSV output: EvDispatch is dropped
// (token handoffs depend on the coalescing mode) and Seq is omitted (dispatch events
// consume per-rank sequence numbers, shifting them; the canonical merge
// order already encodes what Seq pins — per-rank program order).
func semanticLines(events []trace.Event) string {
	var b strings.Builder
	for _, e := range events {
		if e.Kind == trace.EvDispatch {
			continue
		}
		fmt.Fprintf(&b, "%d,%d,%s,%d,%d,%d\n", e.Clock, e.Rank, e.Kind, e.Arg0, e.Arg1, e.Arg2)
	}
	return b.String()
}

// traceStreams compares one engine case's merged event stream against
// the earlier cases of the matrix: the dispatch-free semantic rendering
// against the first case, and the raw CSV (EvDispatch handoffs and Seq
// numbers included) against the first case of the same coalescing mode
// — handoffs are engine-invariant but not coalescing-invariant. It also
// replays the stream through trace.Validate.
type traceStreams struct {
	sem string
	csv map[bool]string // per NoCoalesce mode
}

func (ts *traceStreams) check(t *testing.T, ec engineCase, events []trace.Event) {
	t.Helper()
	if err := trace.Validate(events); err != nil {
		t.Fatalf("%s: replay validation: %v", ec.name, err)
	}
	if len(events) == 0 {
		t.Fatalf("%s: empty event stream", ec.name)
	}
	sem := semanticLines(events)
	if ts.csv == nil {
		ts.sem, ts.csv = sem, map[bool]string{}
	} else {
		diffStreams(t, ec.name+" semantic", ts.sem, sem)
	}
	var b strings.Builder
	if err := trace.WriteCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	if want, ok := ts.csv[ec.noCoalesce]; ok {
		diffStreams(t, ec.name+" raw CSV", want, b.String())
	} else {
		ts.csv[ec.noCoalesce] = b.String()
	}
}

// diffStreams reports a diverging event stream with its first differing line.
func diffStreams(t *testing.T, what, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	t.Errorf("%s event stream diverged (%d vs %d lines)",
		what, strings.Count(want, "\n"), strings.Count(got, "\n"))
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	for j := 0; j < len(a) && j < len(b); j++ {
		if a[j] != b[j] {
			t.Errorf("first divergence at line %d:\n a: %s\n b: %s", j, a[j], b[j])
			break
		}
	}
}

// traceSpec is the contended P=16 cell the trace-stream gates run.
func traceSpec(scheme string, ec engineCase, sink *trace.Sink) workload.Spec {
	return workload.Spec{
		Scheme: scheme,
		P:      16, ProcsPerNode: 4,
		Seed:     13,
		Iters:    10,
		Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
		Workload: &workload.SharedOp{},
		Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
		Trace: sink,
	}
}

// TestDifferentialTraceStreams is the trace ↔ coalescing interplay
// gate: for every engine × coalescing combination, the merged semantic
// event stream (RMA ops, lock protocol, blocks, wakes, barriers —
// everything except token handoffs and the ClassCharge publication
// diagnostics) must be byte-identical, and must replay cleanly through
// trace.Validate. Charge coalescing moves *when* virtual time is
// published and which handoffs happen, but never when anything
// observable happens; this test pins that at per-event granularity.
// Within one coalescing mode the engines must also match on the raw
// CSV, handoffs and Seq numbers included (see traceStreams). Runs under
// -race in CI (the race job's Differential pattern), which also
// exercises the lock-free emission path of the fast engine.
func TestDifferentialTraceStreams(t *testing.T) {
	for _, scheme := range workload.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			var ts traceStreams
			for _, ec := range engineCases {
				sink := trace.New(trace.ClassSemantic)
				if _, err := workload.Run(traceSpec(scheme, ec, sink)); err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				ts.check(t, ec, sink.Events())
			}
		})
	}
}

// TestCoalescingHandoffBound pins what charge coalescing buys: a rank
// hands the token on only right before a shared access, a block, a
// barrier or its exit, never after a Flush or a Compute. So with
// coalescing on, the handoff (EvDispatch) count is bounded by the
// non-flush ops plus blocks plus two per barrier arrival and two per
// rank (a flush-and-arrive pair, a flush-and-exit pair), and it is
// strictly below the eager NoCoalesce count, which may hand off after
// every charge.
func TestCoalescingHandoffBound(t *testing.T) {
	count := func(scheme string, ec engineCase) (dispatches, bound int) {
		sink := trace.New(trace.ClassSemantic)
		if _, err := workload.Run(traceSpec(scheme, ec, sink)); err != nil {
			t.Fatalf("%s %s: %v", scheme, ec.name, err)
		}
		ops, blocks, barriers := 0, 0, 0
		for _, e := range sink.Events() {
			switch e.Kind {
			case trace.EvDispatch:
				dispatches++
			case trace.EvOp:
				if e.Arg0 != trace.OpFlush {
					ops++
				}
			case trace.EvBlock:
				blocks++
			case trace.EvBarrier:
				barriers++
			}
		}
		return dispatches, ops + blocks + 2*(barriers+16)
	}
	for _, scheme := range workload.Schemes {
		on, bound := count(scheme, engineCases[0])
		off, _ := count(scheme, engineCases[1])
		if on > bound {
			t.Errorf("%s: %d handoffs with coalescing, above the bound %d", scheme, on, bound)
		}
		if on >= off {
			t.Errorf("%s: %d handoffs with coalescing, not below NoCoalesce's %d", scheme, on, off)
		}
		t.Logf("%s: handoffs %d coalesced (bound %d), %d eager", scheme, on, bound, off)
	}
}

// TestDifferentialDHT pins the engines against each other on the DHT
// workload (Skip rank, sharded locks): the heaviest user of SpinUntil
// wake-ups and therefore of the horizon-shrink path.
func TestDifferentialDHT(t *testing.T) {
	mk := func(engine string, noCoalesce bool) workload.Spec {
		return workload.Spec{
			Scheme: workload.SchemeRMARW,
			P:      8, ProcsPerNode: 4,
			Seed:  5,
			Iters: 10, Warmup: -1,
			Profile:  workload.Uniform{FW: 0.4},
			Workload: &workload.DHTOps{Slots: 64, Cells: 256},
			Skip:     func(rank, procs int) bool { return rank == 0 },
			Engine:   engine, NoCoalesce: noCoalesce,
		}
	}
	var baseFP string
	for i, ec := range engineCases {
		rep, err := workload.Run(mk(ec.engine, ec.noCoalesce))
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if i == 0 {
			baseFP = rep.Fingerprint()
			continue
		}
		if fp := rep.Fingerprint(); fp != baseFP {
			t.Errorf("%s diverged:\n a: %s\n b: %s", ec.name, baseFP, fp)
		}
	}
}

// TestDifferentialWorkloads sweeps the remaining critical-section bodies
// (empty, counter) on both engines at a writer-heavy mix.
func TestDifferentialWorkloads(t *testing.T) {
	for _, wname := range []string{"empty", "counter"} {
		wname := wname
		t.Run(wname, func(t *testing.T) {
			t.Parallel()
			var baseFP string
			for i, ec := range engineCases {
				wl, err := workload.ByName(wname)
				if err != nil {
					t.Fatal(err)
				}
				spec := workload.Spec{
					Scheme: workload.SchemeRMAMCS,
					P:      16, ProcsPerNode: 4,
					Seed:     3,
					Iters:    10,
					Profile:  workload.Uniform{FW: 1},
					Workload: wl,
					Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
				}
				rep, err := workload.Run(spec)
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				if i == 0 {
					baseFP = rep.Fingerprint()
					continue
				}
				if fp := rep.Fingerprint(); fp != baseFP {
					t.Errorf("%s diverged:\n a: %s\n b: %s", ec.name, baseFP, fp)
				}
			}
		})
	}
}
