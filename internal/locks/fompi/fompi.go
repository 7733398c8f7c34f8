// Package fompi implements the two comparison locks of the foMPI MPI-3
// RMA library (Gerstenberger et al., SC'13) that the paper evaluates
// against: a global spinlock (foMPI-Spin) and a centralized Reader-Writer
// lock (foMPI-RW). Both keep their state on a single rank, which is
// exactly the hot spot the paper's distributed designs remove.
package fompi

import (
	"rmalocks/internal/rma"
	"rmalocks/internal/spinwait"
)

// SpinLock is foMPI-Spin: a test-and-CAS spinlock with exponential backoff
// on one word of one rank.
type SpinLock struct {
	base int
	home int
	id   int // trace lock id (Machine.RegisterLock)

	// Retries counts failed CAS attempts (contention indicator).
	Retries int64
}

// NewSpin allocates a foMPI-Spin lock with its word on rank 0.
func NewSpin(m *rma.Machine) *SpinLock {
	l := &SpinLock{base: m.Alloc(1), home: 0, id: m.RegisterLock()}
	m.OnInit(func(m *rma.Machine) {
		m.Set(l.home, l.base, 0)
		l.Retries = 0
	})
	return l
}

// Acquire spins with capped exponential backoff until the CAS 0→1 wins.
func (l *SpinLock) Acquire(p *rma.Proc) {
	p.TraceAcquireStart(l.id, true)
	// Spinlocks back off much further than queue locks: every retry is a
	// remote atomic on the single hot word.
	b := spinwait.New(200, 16000)
	for {
		prev := p.CAS(1, 0, l.home, l.base)
		p.Flush(l.home)
		if prev == 0 {
			p.TraceAcquired(l.id, true)
			return
		}
		l.Retries++
		b.Pause(p)
	}
}

// TryAcquireFor is the bounded variant of Acquire: it spins until the
// CAS wins or the deadline passes, then gives up cleanly — a CAS lock
// enqueues nothing, so abandoning is just stopping. Failed attempts are
// resolved in the trace stream as EvAcqTimeout.
func (l *SpinLock) TryAcquireFor(p *rma.Proc, timeout int64) bool {
	p.TraceAcquireStart(l.id, true)
	deadline := p.Now() + timeout
	b := spinwait.New(200, 16000)
	for {
		prev := p.CAS(1, 0, l.home, l.base)
		p.Flush(l.home)
		if prev == 0 {
			p.TraceAcquired(l.id, true)
			return true
		}
		l.Retries++
		if p.Now() >= deadline {
			p.TraceAcquireTimeout(l.id, true)
			return false
		}
		b.Pause(p)
	}
}

// Release clears the lock word.
func (l *SpinLock) Release(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	p.Accumulate(0, l.home, l.base, rma.OpReplace)
	p.Flush(l.home)
}

// writerBit marks a writer holding (or claiming) the RW lock; the low bits
// count active readers.
const writerBit int64 = 1 << 62

// RWLock is foMPI-RW: a centralized reader-writer lock on a single word.
// Readers fetch-and-add the reader count; a writer claims the writer bit
// and drains readers. All traffic targets one rank.
type RWLock struct {
	base int
	home int
	id   int // trace lock id (Machine.RegisterLock)

	// ReaderRetries / WriterRetries count back-offs (contention).
	ReaderRetries int64
	WriterRetries int64
}

// NewRW allocates a foMPI-RW lock with its word on rank 0.
func NewRW(m *rma.Machine) *RWLock {
	l := &RWLock{base: m.Alloc(1), home: 0, id: m.RegisterLock()}
	m.OnInit(func(m *rma.Machine) {
		m.Set(l.home, l.base, 0)
		l.ReaderRetries = 0
		l.WriterRetries = 0
	})
	return l
}

// AcquireRead increments the reader count; if a writer holds or claims the
// lock, it undoes the increment, waits for the writer bit to clear, and
// retries.
func (l *RWLock) AcquireRead(p *rma.Proc) {
	p.TraceAcquireStart(l.id, false)
	b := spinwait.New(200, 16000)
	for {
		prev := p.FAO(1, l.home, l.base, rma.OpSum)
		p.Flush(l.home)
		if prev&writerBit == 0 {
			p.TraceAcquired(l.id, false)
			return
		}
		// A writer is in or entering the CS: back out and wait.
		p.Accumulate(-1, l.home, l.base, rma.OpSum)
		p.Flush(l.home)
		l.ReaderRetries++
		for {
			v := p.Get(l.home, l.base)
			p.Flush(l.home)
			if v&writerBit == 0 {
				break
			}
			b.Pause(p)
		}
	}
}

// TryAcquireReadFor is the bounded variant of AcquireRead. The fast
// path already backs the increment out when a writer holds the lock, so
// a timed-out attempt leaves the word exactly as it found it.
func (l *RWLock) TryAcquireReadFor(p *rma.Proc, timeout int64) bool {
	p.TraceAcquireStart(l.id, false)
	deadline := p.Now() + timeout
	b := spinwait.New(200, 16000)
	for {
		prev := p.FAO(1, l.home, l.base, rma.OpSum)
		p.Flush(l.home)
		if prev&writerBit == 0 {
			p.TraceAcquired(l.id, false)
			return true
		}
		p.Accumulate(-1, l.home, l.base, rma.OpSum)
		p.Flush(l.home)
		l.ReaderRetries++
		for {
			if p.Now() >= deadline {
				p.TraceAcquireTimeout(l.id, false)
				return false
			}
			v := p.Get(l.home, l.base)
			p.Flush(l.home)
			if v&writerBit == 0 {
				break
			}
			b.Pause(p)
		}
	}
}

// ReleaseRead decrements the reader count.
func (l *RWLock) ReleaseRead(p *rma.Proc) {
	p.TraceRelease(l.id, false)
	p.Accumulate(-1, l.home, l.base, rma.OpSum)
	p.Flush(l.home)
}

// AcquireWrite claims the writer bit (one writer at a time), then waits
// for active readers to drain. Claiming before draining gives writers
// preference so they cannot starve behind a continuous reader stream.
func (l *RWLock) AcquireWrite(p *rma.Proc) {
	p.TraceAcquireStart(l.id, true)
	b := spinwait.New(200, 16000)
	for {
		v := p.Get(l.home, l.base)
		p.Flush(l.home)
		if v&writerBit != 0 {
			l.WriterRetries++
			b.Pause(p)
			continue
		}
		prev := p.CAS(v|writerBit, v, l.home, l.base)
		p.Flush(l.home)
		if prev == v {
			break // claimed
		}
		l.WriterRetries++
		b.Pause(p)
	}
	// Drain readers.
	b.Reset()
	for {
		v := p.Get(l.home, l.base)
		p.Flush(l.home)
		if v == writerBit {
			p.TraceAcquired(l.id, true)
			return
		}
		b.Pause(p)
	}
}

// TryAcquireWriteFor is the bounded variant of AcquireWrite. A deadline
// during the claim phase just stops retrying; a deadline during the
// reader drain backs the claimed writer bit out, so a timed-out writer
// never wedges the lock.
func (l *RWLock) TryAcquireWriteFor(p *rma.Proc, timeout int64) bool {
	p.TraceAcquireStart(l.id, true)
	deadline := p.Now() + timeout
	b := spinwait.New(200, 16000)
	for {
		v := p.Get(l.home, l.base)
		p.Flush(l.home)
		if v&writerBit != 0 {
			l.WriterRetries++
			if p.Now() >= deadline {
				p.TraceAcquireTimeout(l.id, true)
				return false
			}
			b.Pause(p)
			continue
		}
		prev := p.CAS(v|writerBit, v, l.home, l.base)
		p.Flush(l.home)
		if prev == v {
			break // claimed
		}
		l.WriterRetries++
		if p.Now() >= deadline {
			p.TraceAcquireTimeout(l.id, true)
			return false
		}
		b.Pause(p)
	}
	// Drain readers; past the deadline, back the claim out so readers
	// and later writers can proceed.
	b.Reset()
	for {
		v := p.Get(l.home, l.base)
		p.Flush(l.home)
		if v == writerBit {
			p.TraceAcquired(l.id, true)
			return true
		}
		if p.Now() >= deadline {
			p.Accumulate(-writerBit, l.home, l.base, rma.OpSum)
			p.Flush(l.home)
			p.TraceAcquireTimeout(l.id, true)
			return false
		}
		b.Pause(p)
	}
}

// ReleaseWrite clears the writer bit.
func (l *RWLock) ReleaseWrite(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	p.Accumulate(-writerBit, l.home, l.base, rma.OpSum)
	p.Flush(l.home)
}
