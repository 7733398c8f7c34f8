package fault

import "testing"

// FuzzParse: Parse must never panic, and every profile it accepts must
// survive the Canonical round trip — Parse(p.Canonical()) succeeds and
// renders the same canonical string, the form sweep keys and report
// fingerprints carry. The seed corpus (testdata/fuzz/FuzzParse) holds
// the specs of the fault tests and the fault-enabled sweeps.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.Canonical()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", spec, canon, err)
		}
		if got := p2.Canonical(); got != canon {
			t.Fatalf("Parse(%q): canonical %q re-renders as %q", spec, canon, got)
		}
	})
}
