// Package dht implements the distributed hashtable of the paper's §5.3:
// the irregular-workload case study representing key-value stores and
// graph processing.
//
// The table stores 64-bit non-negative integers and consists of per-process
// parts called local volumes. Each local volume is a fixed-size slot table
// plus a fixed-size overflow heap for hash collisions, both in the owning
// process's RMA window. Inserts use atomic CASes: the slot CAS wins the
// slot, the loser allocates an overflow cell by atomically bumping the
// volume's next-free pointer and appends it to the slot's chain with an
// atomic swap of the last-element pointer.
//
// Two operation families are provided:
//
//   - Atomic* (the paper's foMPI-A): lock-free operations built on
//     CAS/FAO, safe under full concurrency;
//   - Plain* (used under an external RW lock): the same structure accessed
//     with cheap Put/Get only, relying on the lock for exclusion.
package dht

import (
	"fmt"

	"rmalocks/internal/rma"
)

// empty marks an unused slot or cell; keys must be non-negative.
const empty = rma.Nil

// Table is a distributed hashtable handle; the actual storage lives in the
// machine's RMA windows, one volume per rank.
type Table struct {
	slots   int // table slots per volume
	cells   int // overflow heap cells per volume
	valOff  int // slots words: slot values
	nxtOff  int // slots words: heap index of first overflow cell (∅ if none)
	lastOff int // slots words: heap index of last chain cell (∅ if none)
	heapVal int // cells words: overflow cell values
	heapNxt int // cells words: overflow cell chain links
	freeOff int // 1 word: next free heap cell

	// Overflows counts inserts rejected because a volume's heap was full.
	Overflows int64
}

// New allocates a table with the given per-volume geometry on machine m.
func New(m *rma.Machine, slots, cells int) *Table {
	if slots <= 0 || cells <= 0 {
		panic(fmt.Sprintf("dht: bad geometry %dx%d", slots, cells))
	}
	t := &Table{
		slots:   slots,
		cells:   cells,
		valOff:  m.Alloc(slots),
		nxtOff:  m.Alloc(slots),
		lastOff: m.Alloc(slots),
		heapVal: m.Alloc(cells),
		heapNxt: m.Alloc(cells),
		freeOff: m.Alloc(1),
	}
	m.OnInit(func(m *rma.Machine) {
		m.Fill(t.valOff, slots, empty)
		m.Fill(t.nxtOff, slots, rma.Nil)
		m.Fill(t.lastOff, slots, rma.Nil)
		m.Fill(t.heapVal, cells, empty)
		m.Fill(t.heapNxt, cells, rma.Nil)
		m.Fill(t.freeOff, 1, 0)
		t.Overflows = 0
	})
	return t
}

// Slots returns the number of table slots per volume.
func (t *Table) Slots() int { return t.slots }

// Cells returns the number of overflow cells per volume.
func (t *Table) Cells() int { return t.cells }

// Slot returns the home slot of key within a volume (Fibonacci hashing).
func (t *Table) Slot(key int64) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h % uint64(t.slots))
}

// checkKey rejects negative keys, which collide with the empty sentinel.
func checkKey(key int64) {
	if key < 0 {
		panic(fmt.Sprintf("dht: negative key %d", key))
	}
}

// ---------------------------------------------------------------------
// Atomic operations (foMPI-A): safe under full concurrency.
// ---------------------------------------------------------------------

// AtomicInsert adds key to the volume of rank vol using CAS/FAO only.
// It returns false if the volume's overflow heap is exhausted.
func (t *Table) AtomicInsert(p *rma.Proc, vol int, key int64) bool {
	checkKey(key)
	s := t.Slot(key)
	// Try to win the slot itself.
	prev := p.CAS(key, empty, vol, t.valOff+s)
	p.Flush(vol)
	if prev == empty {
		return true
	}
	// Collision: allocate an overflow cell.
	idx := p.FAO(1, vol, t.freeOff, rma.OpSum)
	p.Flush(vol)
	if idx >= int64(t.cells) {
		t.Overflows++
		return false
	}
	p.Put(key, vol, t.heapVal+int(idx))
	p.Put(rma.Nil, vol, t.heapNxt+int(idx))
	p.Flush(vol)
	// Swing the last-element pointer to us and link behind the previous
	// tail (the paper's "second CAS"; an atomic swap is equivalent here).
	last := p.FAO(idx, vol, t.lastOff+s, rma.OpReplace)
	p.Flush(vol)
	if last == rma.Nil {
		p.Put(idx, vol, t.nxtOff+s)
	} else {
		p.Put(idx, vol, t.heapNxt+int(last))
	}
	p.Flush(vol)
	return true
}

// AtomicLookup reports whether key is present in vol's volume, reading the
// chain with individually atomic Gets.
func (t *Table) AtomicLookup(p *rma.Proc, vol int, key int64) bool {
	checkKey(key)
	s := t.Slot(key)
	v := p.Get(vol, t.valOff+s)
	p.Flush(vol)
	if v == key {
		return true
	}
	if v == empty {
		return false
	}
	cur := p.Get(vol, t.nxtOff+s)
	p.Flush(vol)
	for cur != rma.Nil {
		cv := p.Get(vol, t.heapVal+int(cur))
		p.Flush(vol)
		if cv == key {
			return true
		}
		cur = p.Get(vol, t.heapNxt+int(cur))
		p.Flush(vol)
	}
	return false
}

// ---------------------------------------------------------------------
// Plain operations: must be called under an external lock (write lock for
// PlainInsert, read or write lock for PlainLookup).
// ---------------------------------------------------------------------

// PlainInsert adds key to vol's volume using only Put/Get; the caller must
// hold exclusive access. Returns false on overflow.
func (t *Table) PlainInsert(p *rma.Proc, vol int, key int64) bool {
	checkKey(key)
	s := t.Slot(key)
	v := p.Get(vol, t.valOff+s)
	p.Flush(vol)
	if v == empty {
		p.Put(key, vol, t.valOff+s)
		p.Flush(vol)
		return true
	}
	idx := p.Get(vol, t.freeOff)
	p.Flush(vol)
	if idx >= int64(t.cells) {
		t.Overflows++
		return false
	}
	p.Put(idx+1, vol, t.freeOff)
	p.Put(key, vol, t.heapVal+int(idx))
	p.Put(rma.Nil, vol, t.heapNxt+int(idx))
	p.Flush(vol)
	last := p.Get(vol, t.lastOff+s)
	p.Flush(vol)
	p.Put(idx, vol, t.lastOff+s)
	if last == rma.Nil {
		p.Put(idx, vol, t.nxtOff+s)
	} else {
		p.Put(idx, vol, t.heapNxt+int(last))
	}
	p.Flush(vol)
	return true
}

// PlainLookup reports whether key is present; the caller must hold at
// least shared access.
func (t *Table) PlainLookup(p *rma.Proc, vol int, key int64) bool {
	return t.AtomicLookup(p, vol, key) // same Get sequence
}

// ---------------------------------------------------------------------
// Inspection helpers (after Machine.Run; not simulated operations).
// ---------------------------------------------------------------------

// Count returns the number of elements stored in vol's volume.
func (t *Table) Count(m *rma.Machine, vol int) int {
	n := 0
	for i := 0; i < t.slots; i++ {
		if m.At(vol, t.valOff+i) != empty {
			n++
		}
	}
	used := m.At(vol, t.freeOff)
	if used > int64(t.cells) {
		used = int64(t.cells)
	}
	for i := int64(0); i < used; i++ {
		if m.At(vol, t.heapVal+int(i)) != empty {
			n++
		}
	}
	return n
}

// Contains checks membership directly in memory (after a run).
func (t *Table) Contains(m *rma.Machine, vol int, key int64) bool {
	s := t.Slot(key)
	if m.At(vol, t.valOff+s) == key {
		return true
	}
	cur := m.At(vol, t.nxtOff+s)
	for cur != rma.Nil {
		if m.At(vol, t.heapVal+int(cur)) == key {
			return true
		}
		cur = m.At(vol, t.heapNxt+int(cur))
	}
	return false
}
