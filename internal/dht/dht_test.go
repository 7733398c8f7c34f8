package dht

import (
	"testing"
	"testing/quick"

	"rmalocks/internal/locks/rmarw"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

func TestAtomicInsertAndLookupSingleProc(t *testing.T) {
	topo := topology.TwoLevel(1, 2)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 60_000_000_000})
	tb := New(m, 16, 64)
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() != 0 {
			return
		}
		for k := int64(0); k < 40; k++ {
			if !tb.AtomicInsert(p, 0, k*3) {
				t.Errorf("insert %d failed", k*3)
			}
		}
		for k := int64(0); k < 40; k++ {
			if !tb.AtomicLookup(p, 0, k*3) {
				t.Errorf("lookup %d failed", k*3)
			}
			if tb.AtomicLookup(p, 0, k*3+1) {
				t.Errorf("found missing key %d", k*3+1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Count(m, 0); got != 40 {
		t.Errorf("Count=%d want 40", got)
	}
}

func TestAtomicInsertConcurrentNoLostKeys(t *testing.T) {
	// All processes hammer rank 0's volume with distinct keys; every key
	// must be present afterwards (CAS insert loses nothing).
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 120_000_000_000})
	const perProc = 20
	tb := New(m, 16, topo.Procs()*perProc) // tiny table: force collisions
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < perProc; i++ {
			key := int64(p.Rank()*perProc + i)
			if !tb.AtomicInsert(p, 0, key) {
				t.Errorf("rank %d: insert %d overflowed", p.Rank(), key)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < int64(topo.Procs()*perProc); k++ {
		if !tb.Contains(m, 0, k) {
			t.Errorf("key %d lost", k)
		}
	}
	if tb.Overflows != 0 {
		t.Errorf("unexpected overflows: %d", tb.Overflows)
	}
}

func TestAtomicInsertOverflowDetected(t *testing.T) {
	topo := topology.TwoLevel(1, 2)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 60_000_000_000})
	tb := New(m, 1, 3) // capacity: 1 slot + 3 cells = 4 keys
	var ok, fail int
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() != 0 {
			return
		}
		for k := int64(0); k < 10; k++ {
			if tb.AtomicInsert(p, 0, k) {
				ok++
			} else {
				fail++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok != 4 || fail != 6 {
		t.Errorf("ok=%d fail=%d want 4/6", ok, fail)
	}
	if tb.Overflows != 6 {
		t.Errorf("Overflows=%d want 6", tb.Overflows)
	}
}

func TestPlainOpsUnderRWLock(t *testing.T) {
	// Plain (lock-protected) ops with a mixed workload: all inserted keys
	// must be present, and lookups under read lock must never crash or
	// see torn chains.
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 600_000_000_000})
	const perProc = 15
	tb := New(m, 8, topo.Procs()*perProc)
	lk := rmarw.NewConfig(m, rmarw.Config{TR: 64, TL: []int64{0, 4, 4}})
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < perProc; i++ {
			key := int64(p.Rank()*perProc + i)
			lk.AcquireWrite(p)
			if !tb.PlainInsert(p, 0, key) {
				t.Errorf("insert %d failed", key)
			}
			lk.ReleaseWrite(p)
			lk.AcquireRead(p)
			if !tb.PlainLookup(p, 0, key) {
				t.Errorf("own key %d not found", key)
			}
			lk.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < int64(topo.Procs()*perProc); k++ {
		if !tb.Contains(m, 0, k) {
			t.Errorf("key %d lost", k)
		}
	}
}

func TestVolumesAreIndependent(t *testing.T) {
	topo := topology.TwoLevel(2, 2)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 60_000_000_000})
	tb := New(m, 8, 32)
	err := m.Run(func(p *rma.Proc) {
		// Everyone inserts its rank into its own volume.
		if !tb.AtomicInsert(p, p.Rank(), int64(p.Rank()+100)) {
			t.Errorf("rank %d insert failed", p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.Procs(); r++ {
		for q := 0; q < topo.Procs(); q++ {
			want := r == q
			if got := tb.Contains(m, r, int64(q+100)); got != want {
				t.Errorf("volume %d key %d: got %v want %v", r, q+100, got, want)
			}
		}
	}
}

func TestSlotHashProperties(t *testing.T) {
	tb := &Table{slots: 64}
	f := func(k uint32) bool {
		s := tb.Slot(int64(k))
		return s >= 0 && s < 64 && s == tb.Slot(int64(k)) // in range, stable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative key did not panic")
		}
	}()
	checkKey(-5)
}

func TestBadGeometryPanics(t *testing.T) {
	topo := topology.TwoLevel(1, 1)
	m := rma.NewMachine(topo)
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	New(m, 0, 10)
}

// TestFillInitMatchesPerWordSet checks the bulk (Machine.Fill) window
// initialization against a per-word Set reference: a second table of the
// same geometry whose windows are first poisoned and then rewritten word
// by word, as the initializer did before Fill. Every word of every rank
// must match, so the bulk init neither misses nor adds a word.
func TestFillInitMatchesPerWordSet(t *testing.T) {
	topo := topology.ForProcs(40, 16)
	const slots, cells = 7, 5
	m := rma.NewMachine(topo)
	New(m, slots, cells)
	ref := rma.NewMachine(topo)
	rt := New(ref, slots, cells)
	ref.OnInit(func(m *rma.Machine) {
		for r := 0; r < m.Procs(); r++ {
			for w := 0; w < m.Words(); w++ {
				m.Set(r, w, 12345)
			}
			for i := 0; i < slots; i++ {
				m.Set(r, rt.valOff+i, empty)
				m.Set(r, rt.nxtOff+i, rma.Nil)
				m.Set(r, rt.lastOff+i, rma.Nil)
			}
			for i := 0; i < cells; i++ {
				m.Set(r, rt.heapVal+i, empty)
				m.Set(r, rt.heapNxt+i, rma.Nil)
			}
			m.Set(r, rt.freeOff, 0)
		}
	})
	idle := func(*rma.Proc) {}
	if err := m.Run(idle); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(idle); err != nil {
		t.Fatal(err)
	}
	if m.Words() != ref.Words() || m.Words() != 3*slots+2*cells+1 {
		t.Fatalf("words: %d vs reference %d", m.Words(), ref.Words())
	}
	for r := 0; r < m.Procs(); r++ {
		for w := 0; w < m.Words(); w++ {
			if got, want := m.At(r, w), ref.At(r, w); got != want {
				t.Errorf("rank %d word %d = %d, per-word reference %d", r, w, got, want)
			}
		}
	}
}
