// Package dmcs implements D-MCS, the distributed topology-oblivious MCS
// lock of the paper's §2.4 (Listings 2–3), derived from the MPI-3 MCS lock
// of Gropp et al. It is both a standalone comparison target and the
// conceptual building block of the DQs used by RMA-MCS and RMA-RW.
package dmcs

import (
	"rmalocks/internal/rma"
)

// Window offsets (words) within the lock's allocation.
const (
	offNext = iota // rank of the next process in the MCS queue (∅ if none)
	offWait        // spin flag: 1 = wait, 0 = go
	offTail        // queue tail rank; meaningful only on tailRank
	words
)

// Lock is a single distributed MCS queue spanning all ranks. The TAIL
// pointer lives on tailRank (rank 0 by default, configurable to study
// hot-spot placement).
type Lock struct {
	base     int
	tailRank int
	id       int // trace lock id (Machine.RegisterLock)

	// Acquires counts lock acquisitions (single-runner safe).
	Acquires int64
}

// New allocates a D-MCS lock on machine m with the TAIL word on rank 0.
func New(m *rma.Machine) *Lock { return NewAt(m, 0) }

// NewAt allocates a D-MCS lock whose TAIL word lives on tailRank.
func NewAt(m *rma.Machine, tailRank int) *Lock {
	l := &Lock{base: m.Alloc(words), tailRank: tailRank, id: m.RegisterLock()}
	m.OnInit(func(m *rma.Machine) {
		m.Fill(l.base+offNext, 1, rma.Nil)
		m.Fill(l.base+offWait, 1, 0)
		m.Set(l.tailRank, l.base+offTail, rma.Nil)
		l.Acquires = 0
	})
	return l
}

// Acquire implements the paper's Listing 2.
func (l *Lock) Acquire(p *rma.Proc) {
	p.TraceAcquireStart(l.id, true)
	l.acquire(p)
	p.TraceAcquired(l.id, true)
}

func (l *Lock) acquire(p *rma.Proc) {
	me := p.Rank()
	// Prepare local fields.
	p.Put(rma.Nil, me, l.base+offNext)
	p.Put(1, me, l.base+offWait)
	p.Flush(me)
	// Enter the tail of the MCS queue and get the predecessor.
	pred := p.FAO(int64(me), l.tailRank, l.base+offTail, rma.OpReplace)
	p.Flush(l.tailRank)
	if pred != rma.Nil {
		// Make the predecessor see us, then spin locally until the
		// predecessor clears our WAIT flag.
		p.Put(int64(me), int(pred), l.base+offNext)
		p.Flush(int(pred))
		p.SpinUntil(me, l.base+offWait, func(v int64) bool { return v == 0 })
	}
	l.Acquires++
}

// Release implements the paper's Listing 3.
func (l *Lock) Release(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	me := p.Rank()
	succ := p.Get(me, l.base+offNext)
	p.Flush(me)
	if succ == rma.Nil {
		// Check if we are still the tail; if so the queue empties.
		curr := p.CAS(rma.Nil, int64(me), l.tailRank, l.base+offTail)
		p.Flush(l.tailRank)
		if curr == int64(me) {
			return // we were the only process in the queue
		}
		// Somebody swapped TAIL; wait until it links itself behind us.
		succ = p.SpinUntil(me, l.base+offNext, func(v int64) bool { return v != rma.Nil })
	}
	// Notify the successor.
	p.Put(0, int(succ), l.base+offWait)
	p.Flush(int(succ))
}
