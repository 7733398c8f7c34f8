package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler polls runtime/metrics in the background and keeps the
// peaks of the memory the runtime has mapped and of heap objects.
// Reading from outside keeps the program free of instrumentation. The
// memory metrics cover the first minPasses passes only: a fixed amount
// of work, so a faster program that fits more passes into the run (and
// a daemon whose job table grows with every job) is not charged for it.
type memSampler struct {
	mu       sync.Mutex
	peakSys  uint64 // all memory mapped by the runtime (MemStats.Sys)
	peakHeap uint64 // heap objects, since the current pass started
	sys      uint64 // peakSys at the end of the last counted pass
	heaps    []float64
	stop     chan struct{}
	done     chan struct{}
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	sys, heap := s[0].Value.Uint64(), s[1].Value.Uint64()
	m.mu.Lock()
	if sys > m.peakSys {
		m.peakSys = sys
	}
	if heap > m.peakHeap {
		m.peakHeap = heap
	}
	m.mu.Unlock()
}

// startPass collects the previous pass's garbage, so every pass starts
// from the same heap, and opens pass n's heap window.
func (m *memSampler) startPass(n int) {
	runtime.GC()
	m.mu.Lock()
	m.peakHeap = 0
	m.mu.Unlock()
	m.sample()
}

// endPass closes pass n's window; the first minPasses passes count.
func (m *memSampler) endPass(n int) {
	if n >= minPasses {
		return
	}
	m.sample()
	m.mu.Lock()
	m.heaps = append(m.heaps, float64(m.peakHeap))
	m.sys = m.peakSys
	m.mu.Unlock()
}

// peaks returns the peak mapped memory over the counted passes and the
// median of their heap peaks.
func (m *memSampler) peaks() (sys, heap float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(m.sys), median(m.heaps)
}

// close stops the sampler and waits for it.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}
