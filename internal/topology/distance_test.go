package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// elementDistance is Distance's definition spelled out with Element:
// N+1 minus the deepest level at which both ranks share an element.
func elementDistance(t *Topology, a, b int) int {
	if a == b {
		return 0
	}
	n := t.Levels()
	for i := n; i >= 1; i-- {
		if t.Element(a, i) == t.Element(b, i) {
			return n + 1 - i
		}
	}
	panic("ranks share no root element")
}

// TestDistanceMatchesElementDefinition checks the leaf-id arithmetic of
// Distance against its per-level Element definition for every rank pair,
// over one- to four-level shapes, several procs-per-leaf and machines
// whose last node is only partly filled.
func TestDistanceMatchesElementDefinition(t *testing.T) {
	var topos []*Topology
	for _, shape := range [][]int{{1}, {1, 4}, {1, 2, 8}, {1, 3, 6, 12}} {
		for ppl := 1; ppl <= 5; ppl++ {
			topos = append(topos, MustNew(shape, ppl))
		}
	}
	for _, pn := range [][2]int{{40, 16}, {17, 16}, {33, 4}, {7, 3}, {5, 16}} {
		topos = append(topos, ForProcs(pn[0], pn[1]))
	}
	for _, topo := range topos {
		p := topo.Procs()
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if got, want := topo.Distance(a, b), elementDistance(topo, a, b); got != want {
					t.Fatalf("%v: Distance(%d,%d)=%d, Element definition gives %d", topo, a, b, got, want)
				}
			}
		}
		for _, bad := range [][2]int{{-1, 0}, {0, -1}, {p, 0}, {0, p}, {p, p}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: Distance(%d,%d) did not panic", topo, bad[0], bad[1])
					}
				}()
				topo.Distance(bad[0], bad[1])
			}()
		}
	}
}

var distanceSink int

// BenchmarkDistance measures one origin→target distance lookup, the
// topology work every simulated RMA op does, over pseudo-random rank
// pairs on the paper's two-level machine and on a four-level one.
func BenchmarkDistance(b *testing.B) {
	for _, topo := range []*Topology{ForProcs(256, 16), MustNew([]int{1, 3, 6, 12}, 4)} {
		b.Run(fmt.Sprintf("levels=%d/P=%d", topo.Levels(), topo.Procs()), func(b *testing.B) {
			const pairs = 1024
			rng := rand.New(rand.NewSource(1))
			as, bs := make([]int, pairs), make([]int, pairs)
			for i := range as {
				as[i], bs[i] = rng.Intn(topo.Procs()), rng.Intn(topo.Procs())
			}
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				k := i & (pairs - 1)
				sum += topo.Distance(as[k], bs[k])
			}
			distanceSink = sum
		})
	}
}
