package scheme_test

import (
	"strconv"
	"strings"
	"testing"

	"rmalocks/internal/scheme"
)

// parseCanonical inverts Tunables.Canonical for the keys a scheme
// accepts (registry keys hold neither ',' nor '=').
func parseCanonical(t *testing.T, s string) scheme.Tunables {
	t.Helper()
	out := scheme.Tunables{}
	if s == "" {
		return out
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if !ok || err != nil {
			t.Fatalf("canonical %q: bad pair %q", s, kv)
		}
		out[k] = n
	}
	return out
}

// FuzzCheck feeds fuzzed tunable sets (two key/value pairs) and level
// counts to every registered scheme's validator. Check must never panic
// and must answer the same twice; a set it accepts must render a
// canonical encoding that parses back to the same set, which Check
// accepts again and which renders the same string — the identity sweep
// cell keys, fingerprints and cache addresses rest on. Accepting a set
// at a known depth implies accepting it with the level bound off.
func FuzzCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, k1 string, v1 int64, k2 string, v2 int64, levels int) {
		tun := scheme.Tunables{k1: v1, k2: v2}
		for _, name := range scheme.Names() {
			err := scheme.Check(name, tun, levels)
			if again := scheme.Check(name, tun.Clone(), levels); (err == nil) != (again == nil) ||
				(err != nil && err.Error() != again.Error()) {
				t.Fatalf("%s: Check(%v, %d) not deterministic: %v then %v", name, tun, levels, err, again)
			}
			if err != nil {
				continue
			}
			c := tun.Canonical()
			back := parseCanonical(t, c)
			if back.Canonical() != c || len(back) != len(tun) {
				t.Fatalf("%s: canonical %q of %v re-parses to %v", name, c, tun, back)
			}
			if err := scheme.Check(name, back, levels); err != nil {
				t.Fatalf("%s: accepted %v but rejects its canonical %q: %v", name, tun, c, err)
			}
			if err := scheme.Check(name, tun, 0); err != nil {
				t.Fatalf("%s: accepted %v at %d levels but not with the bound off: %v", name, tun, levels, err)
			}
		}
	})
}
