package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing after a deadline. Run stops every coroutine before it
// returns, but a finished coroutine's goroutine may still be exiting
// when Run's caller reads the count, so an immediate read would race
// with its teardown.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d live, want <= %d\n%s",
				n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterRelease is the leak regression test of the
// pooled scheduler core: after Run and Release — and after a second
// scheduler reacquires the pooled core and runs again — the goroutine
// count returns to the pre-run baseline (a leaked parked rank would
// hold its goroutine forever).
func TestNoGoroutineLeakAfterRelease(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		s := New(Config{Procs: 64})
		err := s.Run(func(h *Handle) {
			h.Advance(int64(1 + h.ID()))
			h.Barrier() // every rank parks at least once
			h.Advance(10)
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Release() // round > 0 reacquires the pooled core
		waitGoroutines(t, baseline)
	}
}

// TestNoGoroutineLeakAfterAbort checks the teardown path: a time-limit
// abort mid-run must still unwind every parked rank's coroutine.
func TestNoGoroutineLeakAfterAbort(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Procs: 64, TimeLimit: 500})
	err := s.Run(func(h *Handle) {
		for {
			h.Advance(100) // every rank eventually trips the limit
		}
	})
	if err == nil {
		t.Fatal("expected time-limit error")
	}
	s.Release()
	waitGoroutines(t, baseline)
}

// TestNoGoroutineLeakAfterPanic: a body panicking with an ordinary value
// (not the scheduler's abort) while other ranks are parked in Block and
// in Barrier fails the run, and Run stops both kinds of parked
// coroutine before it returns.
func TestNoGoroutineLeakAfterPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Procs: 8})
	err := s.Run(func(h *Handle) {
		switch {
		case h.ID() == 0:
			h.Advance(100) // runs last: everyone else is parked by then
			panic("boom")
		case h.ID()%2 == 1:
			h.Block() // never woken
		default:
			h.Barrier() // never completed: rank 0 and the blocked ranks don't arrive
		}
	})
	if err == nil || !strings.Contains(err.Error(), "process 0 panicked: boom") {
		t.Fatalf("err=%v, want rank 0's panic", err)
	}
	s.Release()
	waitGoroutines(t, baseline)
}

// TestNoGoroutineLeakAfterDeadlock: when the last runnable rank blocks,
// the run fails with ErrDeadlock and every parked coroutine is unwound.
func TestNoGoroutineLeakAfterDeadlock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Procs: 16})
	err := s.Run(func(h *Handle) {
		h.Advance(int64(1 + h.ID()))
		h.Block() // nobody wakes anyone
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err=%v want ErrDeadlock", err)
	}
	s.Release()
	waitGoroutines(t, baseline)
}
