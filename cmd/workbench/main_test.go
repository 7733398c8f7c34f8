package main

import (
	"reflect"
	"strings"
	"testing"

	"rmalocks/internal/sweep"
)

// TestTuneAxesSet pins the -tune flag grammar, in particular that a
// repeated axis key is rejected at flag parsing with a clear error —
// the first line of defense before Grid.Cells' typed
// DuplicateAxisError.
func TestTuneAxesSet(t *testing.T) {
	var axes tuneAxes
	if err := axes.Set("TR=250,500,1000"); err != nil {
		t.Fatal(err)
	}
	if err := axes.Set("TL2=16,32"); err != nil {
		t.Fatal(err)
	}
	want := []sweep.TunableAxis{
		{Key: "TR", Values: []int64{250, 500, 1000}},
		{Key: "TL2", Values: []int64{16, 32}},
	}
	if len(axes) != len(want) {
		t.Fatalf("parsed %d axes, want %d", len(axes), len(want))
	}
	for i, ax := range axes {
		if ax.Key != want[i].Key || len(ax.Values) != len(want[i].Values) {
			t.Errorf("axis %d = %+v, want %+v", i, ax, want[i])
		}
	}

	err := axes.Set("TR=42")
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("repeated -tune key: err = %v, want duplicate-axis error", err)
	}
	if len(axes) != 2 {
		t.Fatalf("failed Set mutated the axes: %+v", axes)
	}

	for _, bad := range []string{"", "TR", "=1,2", "TR=", "TR=a,b"} {
		var fresh tuneAxes
		if err := fresh.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted malformed input", bad)
		}
	}
}

// FuzzTuneAxesSet feeds two fuzzed -tune flag values to one tuneAxes.
// Set must never panic; a rejected value must leave the axes as they
// were; and every parsed axis must render (String) to a flag value that
// Set parses back to the same axis.
func FuzzTuneAxesSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		var axes tuneAxes
		for _, s := range []string{a, b} {
			before := append(tuneAxes(nil), axes...)
			if err := axes.Set(s); err != nil && !reflect.DeepEqual(axes, before) {
				t.Fatalf("rejected Set(%q) changed the axes: %+v -> %+v", s, before, axes)
			}
		}
		var parts []string
		for _, ax := range axes {
			one := tuneAxes{ax}
			s := one.String()
			parts = append(parts, s)
			var back tuneAxes
			if err := back.Set(s); err != nil {
				t.Fatalf("axis %+v renders %q, which Set rejects: %v", ax, s, err)
			}
			if !reflect.DeepEqual(back, one) {
				t.Fatalf("axis %+v renders %q, which parses to %+v", ax, s, back)
			}
		}
		if got, want := axes.String(), strings.Join(parts, " "); got != want {
			t.Fatalf("String() = %q, want the per-axis renderings %q", got, want)
		}
	})
}
