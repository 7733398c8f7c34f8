// Package rma simulates the Remote Memory Access programming model of the
// paper (Listing 1) on a virtual distributed machine.
//
// Every simulated process (rank) exposes a window of 64-bit words. Processes
// access each other's windows with Put, Get, Accumulate, FAO, CAS and Flush,
// exactly the operation set the paper's locks are written against. Timing is
// virtual: operations charge a topology-dependent latency and serialize per
// target rank (NIC/memory occupancy), driven by the deterministic
// discrete-event scheduler in package sim (or its refsim reference
// implementation, selected by Config.Engine).
//
// Memory effects apply at operation issue (a legal linearization point), so
// protocol correctness is exact; timing is modeled.
package rma

import (
	"fmt"

	"rmalocks/internal/fault"
	"rmalocks/internal/sim"
	"rmalocks/internal/sim/refsim"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
)

// Nil is the null rank/pointer value ∅ of the paper.
const Nil int64 = -1

// Op selects the operation applied by Accumulate and FAO.
type Op int

const (
	// OpSum atomically adds the operand to the target word.
	OpSum Op = iota
	// OpReplace atomically replaces the target word with the operand.
	OpReplace
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "SUM"
	case OpReplace:
		return "REPLACE"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// schedHandle abstracts the per-process scheduler handle behind the
// operations the RMA layer needs, so one Machine can run on either the
// fast-path scheduler (sim) or the reference one (refsim). Both engines
// expose the same Horizon semantics, which keeps charge coalescing — and
// therefore every interleaving — byte-identical between them.
type schedHandle interface {
	ID() int
	Clock() int64
	Horizon() int64
	Advance(d int64)
	Barrier()
	Block()
	WakeAt(clock int64)
	Abort(err error)
}

// engine abstracts a whole scheduler run.
type engine interface {
	MaxClock() int64
	Release()
}

// Engine names accepted by Config.Engine.
const (
	// EngineFast is the token-owned fast-path scheduler (internal/sim),
	// the default.
	EngineFast = "fast"
	// EngineRef is the reference scheduler (internal/sim/refsim), used by
	// the differential determinism suite.
	EngineRef = "ref"
)

// UnknownEngineError reports an engine name that selects no scheduler.
type UnknownEngineError struct {
	Name string
}

func (e UnknownEngineError) Error() string {
	return fmt.Sprintf("rma: unknown engine %q (have '', %q, %q)", e.Name, EngineFast, EngineRef)
}

// CheckEngine is the one list of engine names: it returns nil when name
// selects a scheduler ("" is EngineFast) and an UnknownEngineError
// otherwise. Front ends that take an engine name from a user or the
// wire call it before building a Machine.
func CheckEngine(name string) error {
	switch name {
	case "", EngineFast, EngineRef:
		return nil
	}
	return UnknownEngineError{Name: name}
}

// Machine is a simulated distributed machine: topology, latency model, and
// one RMA window per rank. Construct it, let locks and data structures
// allocate window words with Alloc and register initializers with OnInit,
// then call Run to execute one simulated program.
type Machine struct {
	topo *topology.Topology
	lat  LatencyModel

	words      int // window words per rank
	mem        []int64
	busy       []int64             // per-rank target busy-until (virtual ns)
	watchers   []map[int][]watcher // per target rank, keyed by offset
	inits      []func(m *Machine)
	seed       int64
	limit      int64 // virtual time limit (0 = none)
	bcost      int64 // barrier cost
	engine     string
	nocoalesce bool
	sink       *trace.Sink
	inj        *fault.Injector // nil when the fault profile perturbs nothing
	nextLockID int
	ran        bool
	stats      Stats
	procBuf    []Proc // flat per-rank Proc slab, reused across runs
	maxClk     int64
}

// Config carries optional Machine parameters.
type Config struct {
	// Latency is the timing model; DefaultLatency(topo.MaxDistance()) if zero.
	Latency *LatencyModel
	// Seed seeds the per-process RNGs (default 1).
	Seed int64
	// TimeLimit aborts a run once virtual time exceeds it (0 = none).
	TimeLimit int64
	// BarrierCost is the virtual cost of one barrier (default 2µs).
	BarrierCost int64
	// Engine selects the scheduler implementation: "" or EngineFast for
	// the token-owned fast-path scheduler, EngineRef for the reference
	// one. Both produce byte-identical runs (test-enforced).
	Engine string
	// NoCoalesce disables charge coalescing, making every operation call
	// the scheduler immediately. A verification knob: coalesced and
	// uncoalesced runs must be byte-identical (test-enforced).
	NoCoalesce bool
	// Trace, when non-nil, captures the run's event stream (see
	// internal/trace): RMA op issue/land events, lock protocol events,
	// scheduler handoffs and coalescing boundaries, per the sink's
	// class mask. Tracing only observes — it never changes a single
	// virtual-time decision (differential-tested), and a nil sink
	// leaves the hot paths at one nil check.
	Trace *trace.Sink
	// Faults, when non-nil, perturbs the machine deterministically (see
	// internal/fault): RTT jitter, congestion windows on network links,
	// straggler occupancy multipliers and op-issue stalls. The schedule
	// is a pure function of (seed, rank, event index), so faulted runs
	// stay byte-identical across engines; a nil profile leaves charge at
	// one nil check.
	Faults *fault.Profile
}

// NewMachine creates a machine over the given topology with default config.
func NewMachine(topo *topology.Topology) *Machine {
	return NewMachineConfig(topo, Config{})
}

// NewMachineConfig creates a machine with explicit configuration. It
// panics on an invalid latency model or an unknown engine name.
func NewMachineConfig(topo *topology.Topology, cfg Config) *Machine {
	lat := DefaultLatency(topo.MaxDistance())
	if cfg.Latency != nil {
		lat = cfg.Latency.extend(topo.MaxDistance())
	}
	if err := lat.validate(topo.MaxDistance()); err != nil {
		panic(err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	bcost := cfg.BarrierCost
	if bcost == 0 {
		bcost = 2000
	}
	if err := CheckEngine(cfg.Engine); err != nil {
		panic(err)
	}
	return &Machine{
		topo:       topo,
		lat:        lat,
		seed:       seed,
		limit:      cfg.TimeLimit,
		bcost:      bcost,
		engine:     cfg.Engine,
		nocoalesce: cfg.NoCoalesce,
		sink:       cfg.Trace,
		inj:        fault.NewInjector(cfg.Faults, seed, topo.Procs()),
	}
}

// Topology returns the machine's topology.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Latency returns the machine's latency model.
func (m *Machine) Latency() LatencyModel { return m.lat }

// Procs returns P.
func (m *Machine) Procs() int { return m.topo.Procs() }

// Alloc reserves n consecutive window words on every rank and returns the
// base offset. All allocation must happen before Run.
func (m *Machine) Alloc(n int) int {
	if m.ran {
		panic("rma: Alloc after Run")
	}
	if n <= 0 {
		panic(fmt.Sprintf("rma: Alloc(%d)", n))
	}
	base := m.words
	m.words += n
	return base
}

// OnInit registers f to run (single-threaded) right before the simulated
// program starts; use it to set initial window contents such as ∅ queue
// pointers.
func (m *Machine) OnInit(f func(m *Machine)) { m.inits = append(m.inits, f) }

// Set pokes a window word directly. Only valid inside OnInit callbacks and
// after Run returns (inspection).
func (m *Machine) Set(rank, offset int, v int64) { m.mem[m.index(rank, offset)] = v }

// Fill sets window words [offset, offset+n) to v on every rank: the bulk
// form of Set for initializers that fill a per-rank range. Like Set it
// panics on an offset outside the window, and also on a range that runs
// past its end. Only valid inside OnInit callbacks and after Run returns.
func (m *Machine) Fill(offset, n int, v int64) {
	if offset < 0 || offset >= m.words || n < 0 || n > m.words-offset {
		panic(fmt.Sprintf("rma: fill [%d,%d+%d) out of range [0,%d)", offset, offset, n, m.words))
	}
	for base := offset; base < len(m.mem); base += m.words {
		w := m.mem[base : base+n]
		for i := range w {
			w[i] = v
		}
	}
}

// At reads a window word directly. Only valid inside OnInit callbacks and
// after Run returns (inspection).
func (m *Machine) At(rank, offset int) int64 { return m.mem[m.index(rank, offset)] }

// Words returns the number of window words allocated per rank.
func (m *Machine) Words() int { return m.words }

// Trace returns the machine's trace sink (nil when tracing is off).
func (m *Machine) Trace() *trace.Sink { return m.sink }

// RegisterLock hands out the next lock id for trace attribution. Lock
// constructors call it before Run; construction order is deterministic,
// so ids are stable across runs and engines.
func (m *Machine) RegisterLock() int {
	id := m.nextLockID
	m.nextLockID++
	return id
}

// Run executes body once per rank as a simulated process and returns when
// all processes finish. It may be called multiple times; window memory is
// re-initialized before each run. Buffers (window memory, busy horizons,
// watcher map, scheduler procs) are reused across runs.
func (m *Machine) Run(body func(p *Proc)) error {
	p := m.topo.Procs()
	if m.words == 0 {
		m.words = 1 // allow op-less smoke programs
	}
	m.reset(p)
	for _, f := range m.inits {
		f(m)
	}
	m.ran = true
	m.stats = Stats{PerDistance: make([]OpCount, m.topo.MaxDistance()+1)}
	simCfg := sim.Config{Procs: p, TimeLimit: m.limit, BarrierCost: m.bcost, Trace: m.sink, ShardSize: m.topo.ProcsPerLeaf()}
	if cap(m.procBuf) >= p {
		m.procBuf = m.procBuf[:p]
	} else {
		m.procBuf = make([]Proc, p)
	}
	wrap := func(h schedHandle) {
		// Procs live in one flat slab indexed by rank (no per-rank boxing);
		// the full re-initialization clears any state left by a previous
		// run. The RNG is built lazily by Rand(): a rand.Rand is ~5KB,
		// which at 10^6 ranks would dwarf the flat scheduler state, and
		// most workload profiles never draw.
		proc := &m.procBuf[h.ID()]
		*proc = Proc{m: m, rank: h.ID(), h: h}
		if m.sink != nil {
			// Per-class buffers, resolved once: a disabled class leaves
			// its pointer nil, so each emission site costs one check.
			proc.opBuf = m.sink.Buf(proc.rank, trace.ClassOp)
			proc.lockBuf = m.sink.Buf(proc.rank, trace.ClassLock)
			proc.chargeBuf = m.sink.Buf(proc.rank, trace.ClassCharge)
		}
		body(proc)
		proc.flush() // publish coalesced time before exit
	}
	var eng engine
	var err error
	switch m.engine {
	case EngineRef:
		sched := refsim.New(simCfg)
		err = sched.Run(func(h *refsim.Handle) { wrap(h) })
		eng = sched
	default:
		sched := sim.New(simCfg)
		err = sched.Run(func(h *sim.Handle) { wrap(h) })
		eng = sched
	}
	m.maxClk = eng.MaxClock()
	eng.Release()
	return err
}

// reset prepares the per-run buffers, reusing prior allocations where the
// shapes match (hot sweep loops run one machine many times).
func (m *Machine) reset(p int) {
	need := p * m.words
	if cap(m.mem) >= need {
		m.mem = m.mem[:need]
		for i := range m.mem {
			m.mem[i] = 0
		}
	} else {
		m.mem = make([]int64, need)
	}
	if cap(m.busy) >= p {
		m.busy = m.busy[:p]
		for i := range m.busy {
			m.busy[i] = 0
		}
	} else {
		m.busy = make([]int64, p)
	}
	if len(m.watchers) != p {
		m.watchers = make([]map[int][]watcher, p)
	} else {
		for i := range m.watchers {
			clear(m.watchers[i])
		}
	}
}

// MaxClock returns the makespan (maximum virtual time, ns) of the last run.
func (m *Machine) MaxClock() int64 { return m.maxClk }

// Stats returns aggregate operation statistics of the last run.
func (m *Machine) Stats() Stats { return m.stats }

func (m *Machine) index(rank, offset int) int {
	if rank < 0 || rank >= m.topo.Procs() {
		panic(fmt.Sprintf("rma: rank %d out of range [0,%d)", rank, m.topo.Procs()))
	}
	if offset < 0 || offset >= m.words {
		panic(fmt.Sprintf("rma: offset %d out of range [0,%d)", offset, m.words))
	}
	return rank*m.words + offset
}

// charge computes the virtual duration of one op from origin clock to
// completion, updates the target's busy-until, and returns the duration
// plus the virtual time at which the operation lands at the target. d is
// the origin→target topological distance, which the op has already
// derived for its stats. The origin clock is the process's effective
// clock (published plus pending coalesced charges), so coalescing never
// skews latency or occupancy. Caller must be the sole running process
// (guaranteed by the scheduler).
func (m *Machine) charge(origin *Proc, target, d int, atomic bool) (dur, land int64) {
	var rtt, occ int64
	if atomic {
		rtt, occ = m.lat.AtomicRTT[d], m.lat.AtomicOcc[d]
	} else {
		rtt, occ = m.lat.DataRTT[d], m.lat.DataOcc[d]
	}
	clock := origin.Now()
	issue := clock
	if m.inj != nil {
		// Deterministic fault injection: stall defers the op's issue
		// (the rank is descheduled), jitter/congestion widen the round
		// trip, stragglers widen target occupancy. The memory effect
		// still applies at the unperturbed issue time, so faults move
		// timing, never the point an access linearizes at.
		var stall int64
		rtt, occ, stall = m.inj.Perturb(origin.rank, origin.fidx, clock, d, target, rtt, occ)
		origin.fidx++
		issue += stall
	}
	// Split the round trip into outbound and return wire time; the return
	// half rounds up so the two always sum to the configured RTT (an odd
	// RTT must not lose a nanosecond to truncation).
	wireOut := rtt / 2
	wireBack := rtt - wireOut
	start := issue + wireOut
	if b := m.busy[target]; b > start {
		start = b
	}
	m.busy[target] = start + occ
	land = start + occ
	complete := land + wireBack
	dur = complete - clock
	if dur < 1 {
		dur = 1
	}
	return dur, land
}

// watcher is a process blocked in SpinUntil on one window word.
type watcher struct {
	p    *Proc
	cond func(int64) bool
}

// addWatcher registers a SpinUntil waiter on target's word at offset.
func (m *Machine) addWatcher(target, offset int, w watcher) {
	ws := m.watchers[target]
	if ws == nil {
		ws = make(map[int][]watcher)
		m.watchers[target] = ws
	}
	ws[offset] = append(ws[offset], w)
}

// wake re-schedules every watcher of the given word whose condition is
// satisfied by the new value; the wake-up clock is the landing time of the
// triggering write plus the watcher's read latency for the word.
func (m *Machine) wake(target, offset int, newVal, land int64) {
	ws := m.watchers[target][offset]
	if len(ws) == 0 {
		return
	}
	remaining := ws[:0]
	for _, w := range ws {
		if w.cond(newVal) {
			detect := m.lat.DataRTT[m.topo.Distance(w.p.rank, target)]
			w.p.h.WakeAt(land + detect)
			continue
		}
		remaining = append(remaining, w)
	}
	if len(remaining) == 0 {
		delete(m.watchers[target], offset)
	} else {
		m.watchers[target][offset] = remaining
	}
}
