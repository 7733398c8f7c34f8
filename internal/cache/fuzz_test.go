package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen: the envelope loader must survive any bytes on disk. The
// fuzzed data is written both as the entry file for input
// (<sha256(input)>.json) and as index.json; Open must then neither
// panic nor fail, and the entry must either load, with Get(input)
// returning exactly its payload, or be listed in LoadReport.Corrupt and
// never be served. The seed corpus (testdata/fuzz/FuzzOpen) holds a
// valid entry, a truncated one, one of the wrong version and one whose
// recorded address does not match its input.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string, data []byte) {
		dir := t.TempDir()
		name := keyOf(input) + ".json"
		for _, file := range []string{name, indexName} {
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, rep, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		got, hit := s.Get(input)
		switch {
		case len(rep.Corrupt) == 1 && rep.Corrupt[0] == name:
			if rep.Entries != 0 || hit {
				t.Fatalf("corrupt entry counted or served: %+v, hit=%v", rep, hit)
			}
		case len(rep.Corrupt) == 0 && rep.Entries == 1 && rep.Loaded == 1:
			var env envelope
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("loaded an entry that does not decode: %v", err)
			}
			if !hit || !bytes.Equal(got, env.Data) {
				t.Fatalf("Get(input) = %q, %v; want the payload %q", got, hit, env.Data)
			}
		default:
			t.Fatalf("entry neither loaded nor reported corrupt: %+v", rep)
		}
	})
}
