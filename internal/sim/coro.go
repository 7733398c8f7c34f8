//go:build go1.23

package sim

import "iter"

// pull creates rank id's coroutine. Its first resume runs the body; each
// later one continues it from the park where it last yielded the token.
func (s *Scheduler) pull(id int32) {
	c := &s.coros[id]
	c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		s.runProc(id)
	})
}
