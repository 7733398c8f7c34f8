package sweep_test

import (
	"bytes"
	"reflect"
	"testing"

	"rmalocks/internal/sweep"
)

// FuzzDecodeGrid: DecodeGrid must never panic on a submitted body, and
// every grid it accepts must cross the wire again unchanged — decode →
// EncodeGrid → decode returns an equal grid, and the second encoding is
// byte-identical to the first. The seed corpus
// (testdata/fuzz/FuzzDecodeGrid) holds the codec tests' wire bodies.
func FuzzDecodeGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sweep.DecodeGrid(data)
		if err != nil {
			return
		}
		enc, err := sweep.EncodeGrid(g)
		if err != nil {
			t.Fatalf("decoded grid does not encode: %v", err)
		}
		g2, err := sweep.DecodeGrid(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if !reflect.DeepEqual(wireView(g), wireView(g2)) {
			t.Fatalf("round trip changed the grid:\n %+v\n %+v", wireView(g), wireView(g2))
		}
		enc2, err := sweep.EncodeGrid(g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n %s\n %s", enc, enc2)
		}
	})
}

// wireGridView is a grid as the wire sees it: empty and nil slices
// alike (an omitted axis and an empty one select the same default),
// fault profiles by their canonical spec (the form cell keys carry).
type wireGridView struct {
	grid   sweep.Grid
	faults []string
}

func wireView(g sweep.Grid) wireGridView {
	v := wireGridView{grid: g}
	v.grid.Schemes, v.grid.Workloads, v.grid.Profiles = nilIfEmpty(g.Schemes), nilIfEmpty(g.Workloads), nilIfEmpty(g.Profiles)
	v.grid.Ps, v.grid.Params.TL = nilIfEmpty(g.Ps), nilIfEmpty(g.Params.TL)
	v.grid.Tunables = nil
	for _, ax := range g.Tunables {
		v.grid.Tunables = append(v.grid.Tunables, sweep.TunableAxis{Key: ax.Key, Values: nilIfEmpty(ax.Values)})
	}
	v.grid.Faults = nil
	for _, fp := range g.Faults {
		v.faults = append(v.faults, fp.Canonical())
	}
	return v
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
