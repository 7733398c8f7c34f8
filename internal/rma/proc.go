package rma

import (
	"fmt"
	"math/rand"

	"rmalocks/internal/trace"
)

// Proc is the per-process handle of a simulated program: it carries the
// process rank and implements the RMA operation set of the paper's
// Listing 1. All methods must be called only from the process's own
// goroutine (the body function passed to Machine.Run).
type Proc struct {
	m    *Machine
	rank int
	h    schedHandle
	// rng is built lazily by Rand(): a rand.Rand costs ~5KB, so eager
	// per-rank construction would dominate memory at million-rank scale
	// while most programs never draw from it.
	rng *rand.Rand
	// pending is virtual time charged but not yet published to the
	// scheduler (charge coalescing, see spend). The process's effective
	// clock is h.Clock() + pending.
	pending int64
	// fidx is the rank's running charge-event index, the event axis of
	// the deterministic fault schedule (see internal/fault). charge is
	// called in the same per-rank order on every engine, so the index —
	// and therefore the schedule — is engine-invariant. Only advanced
	// when fault injection is on.
	fidx uint64
	// Per-class trace buffers (nil when tracing or the class is off):
	// opBuf receives RMA op issue/land events, lockBuf the lock
	// protocol events emitted via the TraceXxx helpers, chargeBuf the
	// coalescing flush boundaries.
	opBuf, lockBuf, chargeBuf *trace.Buf
}

// Rank returns the process's rank, 0-based.
func (p *Proc) Rank() int { return p.rank }

// Machine returns the machine this process runs on.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the process's effective virtual clock in nanoseconds,
// including charges coalesced but not yet published to the scheduler.
func (p *Proc) Now() int64 { return p.h.Clock() + p.pending }

// Rand returns the process's deterministic random source, created on
// first use. The seed derivation is fixed (machine seed and rank only),
// so the stream is byte-identical no matter when — or whether — other
// ranks draw.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.m.seed*1000003 + int64(p.rank)))
	}
	return p.rng
}

// spend charges d nanoseconds of virtual time. With coalescing on, the
// charge only accumulates in p.pending: nothing another process can
// observe happens until this rank's next shared access, and sync
// publishes the accumulated time right before it, so the handoffs an
// eager run would take between two accesses (after a Flush, a Compute,
// a CAS's own charge) collapse into one. NoCoalesce is the eager
// reference mode: every charge is its own Advance.
//
// A charge that crosses the time limit is published at once, so the
// limit fails the run at that charge (a compute-only loop touches no
// shared state and would otherwise never stop). The time before the
// charge is published first, handing the token on if it crosses the
// horizon, so the failing charge runs as the (clock, id) minimum — the
// same process and clock as an eager run reports.
func (p *Proc) spend(d int64) {
	if d < 1 {
		d = 1 // match sim.Advance's minimum step
	}
	if p.m.nocoalesce {
		p.h.Advance(d)
		return
	}
	p.pending += d
	if lim := p.m.limit; lim > 0 && p.Now() > lim {
		p.pending -= d
		p.sync()
		p.pending += d
		p.flush() // crosses the horizon, which is clamped to the limit: fails the run
	}
}

// sync makes the calling rank the (clock, id) minimum at its effective
// clock before a shared access: when the coalesced time has crossed the
// scheduler's horizon, it publishes it through one Advance, which hands
// the token on, and returns once the rank is the minimum again. Every
// memory effect, busy-horizon update, wake and block therefore happens
// in the global (effective clock, rank) order of an eager run; only the
// handoffs in between, which nothing can observe, are skipped.
func (p *Proc) sync() {
	if p.h.Clock()+p.pending > p.h.Horizon() {
		p.flush()
	}
}

// flush publishes any coalesced-but-unpublished virtual time through one
// Advance, which hands the token on if the effective clock has crossed
// the horizon. Right after a sync (as in SpinUntil) it never yields; at
// Barrier and at process exit it may, and the rank then arrives or exits
// once it is the minimum again, as it would in an eager run.
func (p *Proc) flush() {
	if p.pending != 0 {
		d := p.pending
		p.pending = 0
		if p.chargeBuf != nil {
			p.chargeBuf.Emit(trace.EvFlush, p.h.Clock()+d, d, 0, 0)
		}
		p.h.Advance(d)
	}
}

// traceOp records one RMA operation issue in the trace stream: the
// issue clock is the effective clock (identical whether or not charges
// are being coalesced), land the virtual time the operation applies at
// the target.
func (p *Proc) traceOp(op int64, target int, land int64) {
	if p.opBuf != nil {
		p.opBuf.Emit(trace.EvOp, p.Now(), op, int64(target), land)
	}
}

func wmode(write bool) int64 {
	if write {
		return 1
	}
	return 0
}

// TraceAcquireStart records the start of a lock acquisition (lock ids
// come from Machine.RegisterLock). The TraceXxx helpers are the
// instrumentation surface the lock implementations call around their
// protocols; with tracing off each is one nil check.
func (p *Proc) TraceAcquireStart(id int, write bool) {
	if p.lockBuf != nil {
		p.lockBuf.Emit(trace.EvAcqStart, p.Now(), int64(id), wmode(write), 0)
	}
}

// TraceAcquired records critical-section entry, tagging the event with
// the rank's leaf machine element so analyses can attribute handoff
// locality without re-deriving the topology.
func (p *Proc) TraceAcquired(id int, write bool) {
	if p.lockBuf != nil {
		elem := p.m.topo.Element(p.rank, p.m.topo.Levels())
		p.lockBuf.Emit(trace.EvAcquired, p.Now(), int64(id), wmode(write), int64(elem))
	}
}

// TraceRelease records the start of a lock release.
func (p *Proc) TraceRelease(id int, write bool) {
	if p.lockBuf != nil {
		p.lockBuf.Emit(trace.EvRelease, p.Now(), int64(id), wmode(write), 0)
	}
}

// TraceAcquireTimeout records a bounded acquire giving up: it resolves
// the rank's pending acq-start for the lock without an acquisition
// (trace.Validate enforces the pairing).
func (p *Proc) TraceAcquireTimeout(id int, write bool) {
	if p.lockBuf != nil {
		p.lockBuf.Emit(trace.EvAcqTimeout, p.Now(), int64(id), wmode(write), 0)
	}
}

// Abort terminates the whole run with err: every rank unwinds and Run
// returns an error wrapping err (errors.Is-visible), identically on both
// engines (conformance-tested). It never returns. Use it for
// fatal protocol conditions a rank detects mid-run, e.g. exhausted
// bounded-acquire retries under a fault profile configured to abort.
func (p *Proc) Abort(err error) {
	// The abort is observable: order it like a shared access, and
	// publish all pending time so the error reports the effective clock.
	p.flush()
	p.h.Abort(err)
	panic("rma: scheduler Abort returned") // unreachable: Abort unwinds
}

// Put atomically places src in target's window at offset.
func (p *Proc) Put(src int64, target, offset int) {
	p.sync()
	i := p.m.index(target, offset)
	p.m.mem[i] = src
	p.m.stats.count(opPut, p.m.topo.Distance(p.rank, target))
	dur, land := p.m.charge(p, target, false)
	p.traceOp(trace.OpPut, target, land)
	p.m.wake(target, offset, src, land)
	p.spend(dur)
}

// Get atomically fetches and returns the word at target's window offset.
// Per the paper, the value is only guaranteed after a subsequent Flush; in
// this simulation it is already the linearized value at issue time.
func (p *Proc) Get(target, offset int) int64 {
	p.sync()
	v := p.m.mem[p.m.index(target, offset)]
	p.m.stats.count(opGet, p.m.topo.Distance(p.rank, target))
	dur, land := p.m.charge(p, target, false)
	p.traceOp(trace.OpGet, target, land)
	p.spend(dur)
	return v
}

// Accumulate atomically applies op with operand oprd to the word at
// target's window offset.
func (p *Proc) Accumulate(oprd int64, target, offset int, op Op) {
	p.sync()
	i := p.m.index(target, offset)
	var nv int64
	switch op {
	case OpSum:
		nv = p.m.mem[i] + oprd
	case OpReplace:
		nv = oprd
	default:
		panic(fmt.Sprintf("rma: unknown op %v", op))
	}
	p.m.mem[i] = nv
	p.m.stats.count(opAcc, p.m.topo.Distance(p.rank, target))
	dur, land := p.m.charge(p, target, true)
	p.traceOp(trace.OpAcc, target, land)
	p.m.wake(target, offset, nv, land)
	p.spend(dur)
}

// FAO atomically applies op with operand oprd to the word at target's
// window offset and returns the word's previous value.
func (p *Proc) FAO(oprd int64, target, offset int, op Op) int64 {
	p.sync()
	i := p.m.index(target, offset)
	prev := p.m.mem[i]
	var nv int64
	switch op {
	case OpSum:
		nv = prev + oprd
	case OpReplace:
		nv = oprd
	default:
		panic(fmt.Sprintf("rma: unknown op %v", op))
	}
	p.m.mem[i] = nv
	p.m.stats.count(opFAO, p.m.topo.Distance(p.rank, target))
	dur, land := p.m.charge(p, target, true)
	p.traceOp(trace.OpFAO, target, land)
	p.m.wake(target, offset, nv, land)
	p.spend(dur)
	return prev
}

// CAS atomically compares the word at target's window offset with cmp and,
// if equal, replaces it with src; it returns the word's previous value.
func (p *Proc) CAS(src, cmp int64, target, offset int) int64 {
	p.sync()
	i := p.m.index(target, offset)
	prev := p.m.mem[i]
	changed := prev == cmp
	if changed {
		p.m.mem[i] = src
	}
	p.m.stats.count(opCAS, p.m.topo.Distance(p.rank, target))
	dur, land := p.m.charge(p, target, true)
	p.traceOp(trace.OpCAS, target, land)
	if changed {
		p.m.wake(target, offset, src, land)
	}
	p.spend(dur)
	return prev
}

// Flush completes all pending RMA calls targeted at target. Operations in
// this simulation complete synchronously, so Flush only charges a small
// bookkeeping cost; it is kept so protocols read exactly like the paper.
// It touches no shared state, so it never hands the token on.
func (p *Proc) Flush(target int) {
	p.m.stats.count(opFlush, 0)
	p.traceOp(trace.OpFlush, target, 0)
	p.spend(flushCost)
}

// FlushAll completes all pending RMA calls of the process.
func (p *Proc) FlushAll() {
	p.m.stats.count(opFlush, 0)
	p.traceOp(trace.OpFlush, -1, 0)
	p.spend(flushCost)
}

// flushCost is the virtual cost (ns) of a Flush; small but nonzero so that
// spin loops always advance virtual time.
const flushCost = 10

// SpinUntil waits until the word at target's window offset satisfies cond
// and returns the satisfying value. It models an MCS-style spin: the
// waiting process polls a (usually local or intra-node) word, which on
// real hardware costs nothing until the granting write arrives; here the
// process blocks and resumes at the landing time of that write plus one
// read latency. Use it for grant flags and status words; keep genuine
// contention loops (e.g., spinlock CAS retries) as explicit loops.
func (p *Proc) SpinUntil(target, offset int, cond func(int64) bool) int64 {
	p.sync()
	idx := p.m.index(target, offset)
	v := p.m.mem[idx]
	if cond(v) {
		// Fast path: one ordinary read observes the satisfying value.
		p.m.stats.count(opGet, p.m.topo.Distance(p.rank, target))
		dur, land := p.m.charge(p, target, false)
		p.traceOp(trace.OpGet, target, land)
		p.spend(dur)
		return v
	}
	// Publish coalesced time before blocking: while we are blocked, the
	// granting write computes our wake-up clock against the published
	// clock. The sync above left the effective clock at or below the
	// horizon and the unsatisfied probe charged nothing, so this flush
	// never yields: the register/block pair below still happens in the
	// same scheduler slice as the check above — no granting write can
	// slip in between (no lost wake-up).
	p.flush()
	for {
		p.m.addWatcher(target, offset, watcher{p: p, cond: cond})
		p.h.Block()
		// A satisfying write landed (our wake clock includes the read
		// latency). Re-validate: later writes may have landed before we
		// were scheduled again.
		v = p.m.mem[idx]
		if cond(v) {
			return v
		}
	}
}

// Compute charges d nanoseconds of local computation (e.g., critical
// section work) to the process's virtual clock. Like Flush it is purely
// local: the time is published at the next shared access.
func (p *Proc) Compute(d int64) {
	p.spend(d)
}

// Barrier synchronizes all processes of the machine: everyone blocks until
// the last arrives, then all clocks jump to the maximum plus a fixed cost.
func (p *Proc) Barrier() {
	p.flush() // arrival clocks must be exact; may hand the token on first
	p.h.Barrier()
}
