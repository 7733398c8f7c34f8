// Package sim implements a deterministic discrete-event scheduler for
// simulated distributed processes.
//
// Each simulated process (rank) has a virtual clock (nanoseconds). The
// scheduler admits exactly one process at a time: the one with the
// minimum (clock, id) pair. A process runs until it calls Advance
// (charging virtual time for an operation it just performed), Block,
// Barrier, or returns, at which point the token is handed to the new
// minimum. Execution is therefore a fully deterministic sequential
// interleaving in virtual-time order, independent of the host's core
// count and of the Go scheduler.
//
// # The driver loop and rank coroutines
//
// Each rank's body runs as a coroutine (iter.Pull) resumed by a loop in
// Run, on the goroutine that called Run. A rank that hands the token on
// records its successor in Scheduler.next and yields back to the loop,
// which resumes the successor. A coroutine switch runs the target
// directly on the current OS thread — no channel, futex or Go scheduler
// wake-up — so a handoff is two switches (rank to loop, loop to rank).
// Exactly one of the loop and the coroutines runs at any instant, and
// every switch is a happens-before edge, so scheduler state needs no
// mutex.
//
// Teardown needs no wake-up either. A time limit, deadlock, Abort or
// panicking body records the first error and leaves next unset, which
// ends the loop; Run then stops every coroutine still parked, whose
// yield returns false, so it unwinds with abortSignal.
//
// # Token ownership and the fast path
//
// Everything the token holder does to its own virtual clock is invisible
// to the other processes until the token is handed over. When a process
// is dispatched it caches a horizon — the largest clock it can reach
// while provably remaining the minimum (heap-top clock adjusted for the
// (clock, id) tie-break, clamped to the time limit). As long as an
// Advance stays at or below the horizon it is a heap-free, switch-free
// clock increment: two compares and an add, zero allocations. Only a
// genuine handoff (crossing the horizon) touches the sharded min-heap
// and yields. The horizon is written only by dispatch (before the switch
// to the new holder) or by the holder itself via Wake. The refsim
// subpackage preserves the original global-mutex scheduler; the
// differential determinism suite in internal/workload checks both
// engines produce byte-identical results.
//
// # Memory-flat proc state
//
// Per-process state is struct-of-arrays, indexed by rank id: clocks,
// horizons and scheduling flags live in flat slices, the pending-process
// queue (see shardHeap) holds 16-byte (clock, id) entries, and a Handle
// caches pointers into the clock/horizon slices so the fast path stays a
// plain increment. Coroutines are created lazily, by dispatch: a rank that has
// never run is represented implicitly by its (0, id) key — the virtual
// start entries [nextStart, Procs) — and its coroutine is created when
// that key first becomes the minimum. A 10^6-rank machine whose ranks
// run one after another therefore pays for coroutine stacks only as
// ranks genuinely interleave, and the flat state costs ~89 bytes per
// rank (16 of them a heap entry, held only while the rank is queued).
//
// The package knows nothing about RMA; package rma layers windows, latency
// and contention modeling on top of it.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"rmalocks/internal/trace"
)

// ErrTimeLimit is returned by Run when a process's virtual clock exceeded
// the configured limit, which almost always indicates livelock or deadlock
// in the simulated protocol.
var ErrTimeLimit = errors.New("sim: virtual time limit exceeded")

// ErrDeadlock is returned by Run when no process can make progress: every
// live process is blocked in a barrier that can never complete.
var ErrDeadlock = errors.New("sim: deadlock: all live processes blocked in barrier")

// MaxProcs is the largest supported process count: rank ids are int32
// throughout the scheduler core (heap entries, shard indices, handles).
const MaxProcs = math.MaxInt32

// abortSignal is panicked inside rank coroutines when the simulation is
// torn down early; runProc recovers it.
type abortSignal struct{}

// Per-rank scheduling flags (the state slice of the SoA layout).
const (
	stInHeap uint8 = 1 << iota
	stBlocked
	stExited
)

// Handle is a per-process handle passed to the process body. Its methods
// must only be called from that process's body (except Wake/WakeAt, which
// the current token holder calls on a blocked process's handle).
// Handles live in one flat slice owned by the scheduler; clock and
// horizon cache pointers into the scheduler's SoA state so the Advance
// fast path needs no bounds checks or extra indirection.
type Handle struct {
	s  *Scheduler
	id int32
	// hs points at s.hot[id]: the process's virtual clock and its
	// fast-path horizon, packed in one 16-byte pair so the Advance fast
	// path touches a single cache line (same load count as a pointer to
	// a per-proc struct, without the per-proc allocation).
	hs *hotState
	// tb is the proc's ClassCharge trace buffer; nil unless charge
	// tracing is enabled. Only the slow (handoff) paths emit through
	// it: the Advance fast path stays byte-for-byte
	// untouched by tracing — a fast-path advance is exactly the
	// publication that no other process can observe, so the charge
	// stream loses nothing by recording only handoffs (here) and
	// coalescing boundaries (rma's EvFlush).
	tb *trace.Buf
}

// ID returns the process id (the simulated rank).
func (h *Handle) ID() int { return int(h.id) }

// Clock returns the process's current virtual time in nanoseconds.
func (h *Handle) Clock() int64 { return h.hs.clock }

// Horizon returns the largest virtual clock the calling process can
// advance to while provably keeping the execution token: any Advance that
// leaves the clock at or below Horizon() is guaranteed not to reschedule.
// It is clamped to the time limit, so an Advance past the limit always
// takes the slow path and fails the run. Package rma accumulates charges
// unpublished and, before each shared access, publishes them through one
// Advance only if they crossed the horizon — the access then runs at the
// same point of the (clock, id) order as in an eager run. Valid only
// while the calling process holds the token; a Wake may shrink it.
func (h *Handle) Horizon() int64 { return h.hs.horizon }

// Scheduler coordinates the virtual clocks of a fixed set of processes.
// All per-rank state is struct-of-arrays, indexed by rank id.
type Scheduler struct {
	n int32
	// SoA per-rank state. hot packs each rank's (clock, horizon) pair —
	// the only fields the Advance fast path and the heap order touch —
	// in one flat slice; scheduling flags live beside it in state.
	hot   []hotState
	state []uint8
	// coros holds each rank's coroutine, created by its first dispatch
	// and cleared when its body returns or is stopped, so a finished Run
	// leaves no closure behind.
	coros   []coro
	handles []Handle
	heap    shardHeap
	// running is the current token holder (horizon cache owner); -1
	// before the first dispatch.
	running int32
	// next is the rank Run's loop resumes next: set by a rank handing
	// the token on just before it yields or returns, -1 when none (the
	// run is over, or failed).
	next int32
	// nextStart is the first rank that has not been dispatched yet:
	// ranks [nextStart, n) are implicitly pending at (clock 0, id),
	// merged with the real heap by topKey. Dispatching one creates its
	// coroutine, so coroutines materialize only as the simulation
	// genuinely interleaves.
	nextStart int32
	live      int
	arrived   []int32     // processes blocked in the current barrier
	syncCost  int64       // virtual cost charged by a barrier
	timeLimit int64       // 0 = unlimited
	tsink     *trace.Sink // non-nil only when ClassSched tracing is on
	body      func(h *Handle)
	core      *schedCore
	err       error
}

// coro is one rank's coroutine: resume switches to it until it yields
// the token (true) or its body is done (false); yield, called by the rank
// itself, switches back to Run's loop and reports false once stop has
// been called; stop unwinds a parked rank (see pull).
type coro struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// Config holds scheduler construction parameters.
type Config struct {
	// Procs is the number of simulated processes (at most MaxProcs).
	Procs int
	// TimeLimit aborts the run with ErrTimeLimit once any process's
	// virtual clock exceeds it. Zero means no limit.
	TimeLimit int64
	// BarrierCost is the virtual time charged to every process by a
	// barrier, on top of synchronizing clocks to the maximum.
	BarrierCost int64
	// ShardSize splits the pending-process heap into ceil(Procs/ShardSize)
	// contiguous rank-range shards (package rma passes the topology's
	// procs-per-leaf so shards mirror compute nodes). Zero or out-of-range
	// values select a single shard. Sharding is transparent: (clock, id)
	// keys are unique, so the dispatch order is identical for every
	// ShardSize (property-tested).
	ShardSize int
	// Trace, when non-nil, receives scheduler events (ClassSched:
	// dispatch/block/wake/barrier) and slow-path clock publications
	// (ClassCharge). The sink is restarted for this run. The lock-free
	// Advance fast path is byte-for-byte identical traced or not
	// (BenchmarkAdvanceUncontended vs BenchmarkAdvanceTraced pin it).
	Trace *trace.Sink
}

// corePool recycles scheduler cores — the SoA state slices, handles and
// the heap/arrived backing arrays — across scheduler instances, so hot sweep loops that
// build one machine per cell stop re-allocating them. Release returns a
// scheduler's core to the pool.
var corePool sync.Pool

type schedCore struct {
	hot     []hotState
	state   []uint8
	coros   []coro
	handles []Handle
	arrived []int32
	shards  [][]heapEntry
	top     []int32
	topPos  []int32
}

// New creates a scheduler for cfg.Procs processes, drawing the core from
// the package free list when one is available.
func New(cfg Config) *Scheduler {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("sim: Procs must be positive, got %d", cfg.Procs))
	}
	if cfg.Procs > MaxProcs {
		panic(fmt.Sprintf("sim: Procs %d exceeds MaxProcs %d (rank ids are int32)", cfg.Procs, MaxProcs))
	}
	n := cfg.Procs
	s := &Scheduler{
		n:         int32(n),
		live:      n,
		syncCost:  cfg.BarrierCost,
		timeLimit: cfg.TimeLimit,
		running:   -1,
	}
	core, _ := corePool.Get().(*schedCore)
	if core == nil {
		core = &schedCore{}
	}
	s.core = core
	s.hot = resizeHot(core.hot, n)
	s.state = resizeState(core.state, n)
	s.coros = resizeCoros(core.coros, n)
	s.handles = resizeHandles(core.handles, n)
	s.arrived = core.arrived[:0]
	var tsink *trace.Sink
	if cfg.Trace != nil {
		cfg.Trace.Start(n)
		if cfg.Trace.Has(trace.ClassSched) {
			s.tsink = cfg.Trace
		}
		tsink = cfg.Trace
	}
	for i := range s.handles {
		h := &s.handles[i]
		h.s = s
		h.id = int32(i)
		h.hs = &s.hot[i]
		h.tb = nil // pooled handles may carry a previous run's trace buffer
		if tsink != nil {
			h.tb = tsink.Buf(i, trace.ClassCharge)
		}
	}
	s.heap.init(n, cfg.ShardSize, core)
	return s
}

// hotState is one rank's fast-path pair: its virtual clock and the
// cached horizon (see the package comment).
type hotState struct {
	clock   int64
	horizon int64
}

// resizeHot returns a zeroed slice with room for n entries, reusing its
// backing array when large enough.
func resizeHot(a []hotState, n int) []hotState {
	if cap(a) >= n {
		a = a[:n]
		clear(a)
	} else {
		a = make([]hotState, n)
	}
	return a
}

func resizeState(a []uint8, n int) []uint8 {
	if cap(a) >= n {
		a = a[:n]
		clear(a)
	} else {
		a = make([]uint8, n)
	}
	return a
}

// resizeCoros needs no clearing: Run leaves every entry zero.
func resizeCoros(cs []coro, n int) []coro {
	if cap(cs) >= n {
		return cs[:n]
	}
	return make([]coro, n)
}

func resizeHandles(hs []Handle, n int) []Handle {
	if cap(hs) >= n {
		return hs[:n]
	}
	return make([]Handle, n)
}

// Release resets the scheduler and returns its core to the package free
// list. Only call it after Run has returned (and after any MaxClock
// inspection); the scheduler must not be used afterwards.
func (s *Scheduler) Release() {
	core := s.core
	if core == nil {
		return
	}
	core.hot, core.state = s.hot, s.state
	core.coros, core.handles, core.arrived = s.coros, s.handles, s.arrived
	core.shards, core.top, core.topPos = s.heap.shards, s.heap.top, s.heap.topPos
	s.hot, s.state, s.coros, s.handles, s.arrived = nil, nil, nil, nil, nil
	s.heap = shardHeap{}
	s.core = nil
	s.running = -1
	corePool.Put(core)
}

// Run executes body(handle) once per process, each in its own coroutine,
// and returns when all processes have exited (or the simulation aborted).
// Coroutines are created lazily in dispatch order — a rank's coroutine
// starts when its (0, id) key first becomes the minimum. A panic inside a
// body aborts the whole simulation and is returned as an error. Run may
// only be called once per Scheduler.
func (s *Scheduler) Run(body func(h *Handle)) error {
	s.body = body
	s.next = s.dispatch() // rank 0: the (0, 0) minimum
	for s.next >= 0 {
		id := s.next
		s.next = -1
		c := &s.coros[id]
		if c.resume == nil {
			s.pull(id)
		}
		if _, ok := c.resume(); !ok {
			*c = coro{}
		}
	}
	// Only a failed run leaves ranks parked: stopping one makes its
	// yield return false, and it unwinds with abortSignal.
	for i := range s.coros {
		if c := &s.coros[i]; c.stop != nil {
			c.stop()
			*c = coro{}
		}
	}
	return s.err
}

// runProc is the body of rank id's coroutine.
func (s *Scheduler) runProc(id int32) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				return // torn down by scheduler
			}
			s.fail(fmt.Errorf("sim: process %d panicked: %v\n%s", id, r, debug.Stack()))
		}
	}()
	h := &s.handles[id]
	s.body(h)
	h.exit()
}

// Err returns the error recorded by the simulation, if any.
func (s *Scheduler) Err() error { return s.err }

// MaxClock returns the largest virtual clock reached by any process. It is
// meaningful after Run returns (total simulated makespan).
func (s *Scheduler) MaxClock() int64 {
	var max int64
	for i := range s.hot {
		if c := s.hot[i].clock; c > max {
			max = c
		}
	}
	return max
}

// Advance charges d nanoseconds of virtual time to the calling process and
// yields the execution token if another process now has the minimum clock.
// d must be positive for operations inside spin loops, or the simulation
// could livelock; Advance enforces d >= 1.
//
// Fast path: while the new clock stays at or below the cached horizon the
// process provably remains the minimum, so the charge is a plain local
// increment — no heap, no coroutine switch, no allocation.
func (h *Handle) Advance(d int64) {
	if d < 1 {
		d = 1
	}
	p := h.hs
	if c := p.clock + d; c <= p.horizon {
		p.clock = c
		return
	}
	h.advanceSlow(d)
}

// advanceSlow is the genuine-handoff path of Advance: re-queue and hand
// the token to the new minimum (possibly ourselves, when only the
// time-limit clamp forced us off the fast path).
func (h *Handle) advanceSlow(d int64) {
	s := h.s
	if s.err != nil {
		panic(abortSignal{})
	}
	c := h.hs.clock + d
	h.hs.clock = c
	if s.timeLimit > 0 && c > s.timeLimit {
		s.fail(fmt.Errorf("%w (process %d at %d ns)", ErrTimeLimit, h.id, c))
		panic(abortSignal{})
	}
	if h.tb != nil {
		h.tb.Emit(trace.EvAdvance, c, d, 0, 0)
	}
	s.push(h.id)
	if next := s.dispatch(); next != h.id {
		h.park(next)
	}
}

// Barrier blocks until every live process has called Barrier, then sets all
// clocks to the maximum arrival time plus the configured barrier cost.
func (h *Handle) Barrier() {
	s := h.s
	id := h.id
	if s.err != nil {
		panic(abortSignal{})
	}
	s.state[id] |= stBlocked
	if s.tsink != nil {
		s.tsink.Buf(int(id), trace.ClassSched).Emit(trace.EvBarrier, h.hs.clock, 0, 0, 0)
	}
	s.arrived = append(s.arrived, id)
	if len(s.arrived) == s.live {
		// Last arriver releases everyone.
		s.releaseBarrier()
		if next := s.dispatch(); next != id {
			h.park(next)
		}
		return
	}
	// Hand the token over; non-arrived live processes are in the heap or
	// not yet started.
	if !s.hasRunnable() {
		s.fail(ErrDeadlock)
		panic(abortSignal{})
	}
	h.park(s.dispatch())
}

// Block removes the calling process from scheduling until another process
// calls Wake on it. Use it for event-driven waiting (e.g., an MCS-style
// spin on a local flag, where polling is free on real hardware and the
// wake time is the landing time of the granting write). If no runnable
// process remains the simulation aborts with ErrDeadlock.
func (h *Handle) Block() {
	s := h.s
	id := h.id
	if s.err != nil {
		panic(abortSignal{})
	}
	s.state[id] |= stBlocked
	if s.tsink != nil {
		s.tsink.Buf(int(id), trace.ClassSched).Emit(trace.EvBlock, h.hs.clock, 0, 0, 0)
	}
	if !s.hasRunnable() {
		s.fail(ErrDeadlock)
		panic(abortSignal{})
	}
	h.park(s.dispatch())
}

// releaseBarrier completes the current barrier: every arrived process's
// clock synchronizes to the maximum arrival time plus the barrier cost,
// and all are re-queued as runnable. Shared by Barrier (last arriver) and
// exit (an exit can complete a pending barrier).
func (s *Scheduler) releaseBarrier() {
	var max int64
	for _, q := range s.arrived {
		if c := s.hot[q].clock; c > max {
			max = c
		}
	}
	max += s.syncCost
	for _, q := range s.arrived {
		s.hot[q].clock = max
		s.state[q] &^= stBlocked
		s.push(q)
	}
	s.arrived = s.arrived[:0]
}

// WakeAt makes the blocked process h runnable again with its virtual
// clock advanced to at least clock. It must be called by the currently
// running process, which keeps the execution token; because the woken
// process may become the new next-minimum, the caller's fast-path
// horizon is re-derived.
func (h *Handle) WakeAt(clock int64) {
	s := h.s
	q := h.id
	if s.err != nil {
		// The simulation is tearing down: the target may already be
		// unwinding (its blocked flag is stale), so waking it is both
		// unsafe and pointless. Abort like Advance/Barrier/Block do.
		panic(abortSignal{})
	}
	st := s.state[q]
	if st&stExited != 0 {
		panic(fmt.Sprintf("sim: Wake of exited process %d (its body already returned)", q))
	}
	if st&stBlocked == 0 {
		panic(fmt.Sprintf("sim: Wake of non-blocked process %d", q))
	}
	s.state[q] = st &^ stBlocked
	if clock > s.hot[q].clock {
		s.hot[q].clock = clock
	}
	if s.tsink != nil {
		waker := int64(-1)
		if s.running >= 0 {
			waker = int64(s.running)
		}
		s.tsink.Buf(int(q), trace.ClassSched).Emit(trace.EvWake, s.hot[q].clock, waker, 0, 0)
	}
	s.push(q)
	if r := s.running; r >= 0 {
		s.hot[r].horizon = s.horizonFor(r)
	}
}

// Wake makes the blocked process q runnable again with its virtual clock
// advanced to at least clock. It must be called by the currently running
// process; the caller keeps the execution token.
func (h *Handle) Wake(q *Handle, clock int64) { q.WakeAt(clock) }

// Abort terminates the simulation with err: the error is recorded (first
// failure wins, wrapped with the aborting process and its virtual time,
// errors.Is-visible), every parked process is unwound, and the calling
// process unwinds immediately — Abort never returns. Must be called by
// the running process itself. Both engines surface aborts identically
// (conformance-tested).
func (h *Handle) Abort(err error) {
	h.s.fail(fmt.Errorf("%w (process %d at %d ns)", err, h.id, h.hs.clock))
	panic(abortSignal{})
}

// park hands the token to the dispatched rank next and suspends the
// caller until Run's loop resumes it with the token again.
func (h *Handle) park(next int32) {
	s := h.s
	s.next = next
	if !s.coros[h.id].yield(struct{}{}) || s.err != nil {
		panic(abortSignal{})
	}
}

// exit removes the process from the simulation and hands the token on.
func (h *Handle) exit() {
	s := h.s
	id := h.id
	if s.err != nil {
		return
	}
	s.state[id] |= stExited
	s.live--
	if s.live == 0 {
		return
	}
	// A barrier that was waiting for us can now be complete. Invariant:
	// s.live >= 1 here (the live == 0 case returned above), so a matching
	// arrived count means every remaining live process is in the barrier.
	if len(s.arrived) == s.live {
		s.releaseBarrier()
	}
	if !s.hasRunnable() {
		s.fail(ErrDeadlock)
		return
	}
	s.next = s.dispatch()
}

// fail records err as the simulation's error; the first error wins. It
// never hands the token on, so Run's loop ends once the failing rank
// yields control back.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// hasRunnable reports whether any process is pending dispatch: queued in
// the heap or not yet started.
func (s *Scheduler) hasRunnable() bool {
	return s.heap.size > 0 || s.nextStart < s.n
}

// topKey returns the minimum pending (clock, id) across the real heap and
// the virtual start entries: rank nextStart, pending at clock 0, stands
// for every not-yet-started rank (they all share clock 0, so the smallest
// id is the only candidate).
func (s *Scheduler) topKey() (clock int64, id int32, ok bool) {
	c, top, hok := s.heap.peek()
	if s.nextStart < s.n {
		// Queued ranks are always started, so top != nextStart; the
		// virtual entry wins exactly when (0, nextStart) < (c, top).
		if !hok || c > 0 || (c == 0 && s.nextStart < top) {
			return 0, s.nextStart, true
		}
	}
	return c, top, hok
}

// dispatch removes the new minimum from the pending set (real heap or
// virtual start entries), records it as the token holder and caches its
// fast-path horizon. Unless the minimum is the caller itself, the caller
// then passes it to park (or, on exit, to s.next). A genuine handoff (the
// token changing hands) emits an EvDispatch event into the new holder's
// stream; writes to a parked proc's trace buffer happen-before the
// coroutine switch that resumes it, so capture stays race-free.
func (s *Scheduler) dispatch() int32 {
	var next int32
	c, top, hok := s.heap.peek()
	if s.nextStart < s.n && (!hok || c > 0 || (c == 0 && s.nextStart < top)) {
		next = s.nextStart
		s.nextStart++
	} else {
		next = s.popMin()
	}
	s.hot[next].horizon = s.horizonFor(next)
	if s.tsink != nil && next != s.running {
		prev := int64(-1)
		if s.running >= 0 {
			prev = int64(s.running)
		}
		s.tsink.Buf(int(next), trace.ClassSched).Emit(trace.EvDispatch, s.hot[next].clock, prev, 0, 0)
	}
	s.running = next
	return next
}

// horizonFor derives rank id's fast-path horizon from the pending minimum:
// id keeps the token while (clock, id) stays lexicographically at or
// below the top's, so it may reach the top clock exactly when its id wins
// the tie-break. The time limit is folded in so the fast path detects
// limit crossings with the same single compare. id must not be pending.
func (s *Scheduler) horizonFor(id int32) int64 {
	hz := int64(math.MaxInt64)
	if c, top, ok := s.topKey(); ok {
		hz = c
		if id > top {
			hz--
		}
	}
	if s.timeLimit > 0 && hz > s.timeLimit {
		hz = s.timeLimit
	}
	return hz
}

func (s *Scheduler) push(id int32) {
	if s.state[id]&stInHeap != 0 {
		panic(fmt.Sprintf("sim: process %d pushed twice", id))
	}
	s.state[id] |= stInHeap
	s.heap.push(id, s.hot[id].clock)
}

func (s *Scheduler) popMin() int32 {
	id := s.heap.pop()
	s.state[id] &^= stInHeap
	return id
}
