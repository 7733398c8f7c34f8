package bench

import (
	"errors"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/sim"
)

// TestRMARWSmallReaderThreshold runs RMA-RW on the empty critical
// section at small T_R and rare writers, where reader counters fill and
// reset constantly. Five configurations must complete on both sequential
// engines.
//
// The sixth (P=64, fw 0.002, T_R=64, 60 iterations) is pinned as a
// known RMA-RW defect, which both engines reproduce as sim.ErrDeadlock.
// A releasing writer resets the reader counters (handing the lock to the
// readers) before it detaches from the root queue. A reader whose
// arrival fills its counter to exactly T_R inside that window probes the
// root tail, still sees the leaving writer, leaves the reset to it and
// parks. The writer has already reset, so that counter is never reset
// again unless another writer comes; with writers this rare none does,
// and its readers stay parked until everyone else has exited. Fixing the
// protocol changes the random streams of every RMA-RW cell, so it is a
// change of its own; when it lands, this case joins the healthy ones.
func TestRMARWSmallReaderThreshold(t *testing.T) {
	for _, engine := range []string{rma.EngineFast, rma.EngineRef} {
		for _, cfg := range []struct {
			p      int
			fw     float64
			tr     int64
			wedges bool
		}{
			{16, 0, 64, false}, {16, 0, 256, false}, {16, 0.002, 64, false},
			{64, 0, 64, false}, {64, 0.002, 64, true}, {64, 0.002, 256, false},
		} {
			_, err := RunRW(RWParams{Scheme: SchemeRMARW, P: cfg.p, Workload: ECSB,
				FW: cfg.fw, Iters: 60, TR: cfg.tr, Engine: engine})
			switch {
			case cfg.wedges && !errors.Is(err, sim.ErrDeadlock):
				t.Errorf("engine %q P=%d fw=%g T_R=%d: err %v, want the pinned sim.ErrDeadlock",
					engine, cfg.p, cfg.fw, cfg.tr, err)
			case !cfg.wedges && err != nil:
				t.Errorf("engine %q P=%d fw=%g T_R=%d: %v", engine, cfg.p, cfg.fw, cfg.tr, err)
			}
		}
	}
}
