package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rmalocks/internal/sweep"
)

// checker counts operations (cells and jobs) and the ones that failed a
// correctness check; fail_ratio is failed / attempted.
type checker struct {
	attempted, failed int64
	errs              []string
}

// op records one operation and its check outcome.
func (c *checker) op(what string, err error) {
	c.attempted++
	if err != nil {
		c.fail(what, err)
	}
}

// fail records a failed check. A check that spans a whole run (digest
// agreement) charges its failure to the operations it covers.
func (c *checker) fail(what string, err error) {
	if c.failed < c.attempted {
		c.failed++
	}
	c.errs = append(c.errs, fmt.Sprintf("%s: %v", what, err))
}

func (c *checker) ok() bool { return len(c.errs) == 0 }

// checkCell verifies a cell's operation count: every rank runs iters
// measured cycles, each either a read or a write. writesEqualP adds the
// one-all-write-iteration rule of the ranks64k cell.
func checkCell(r sweep.CellResult, iters int, writesEqualP bool) error {
	rep := r.Report
	if rep.Reads+rep.Writes != rep.Ops {
		return fmt.Errorf("%s: reads %d + writes %d != ops %d", r.Key, rep.Reads, rep.Writes, rep.Ops)
	}
	if want := int64(rep.P) * int64(iters); rep.Ops != want {
		return fmt.Errorf("%s: ops %d != P %d × iters %d", r.Key, rep.Ops, rep.P, iters)
	}
	if writesEqualP && rep.Writes != int64(rep.P) {
		return fmt.Errorf("%s: writes %d != P %d", r.Key, rep.Writes, rep.P)
	}
	if r.Fingerprint != rep.Fingerprint() {
		return fmt.Errorf("%s: stored fingerprint does not match its report", r.Key)
	}
	return nil
}

// digest condenses a workload's results, in canonical order, into one
// hash of their keys and report fingerprints.
func digest(results []sweep.CellResult) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s\n%s\n", r.Key, r.Fingerprint)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkSeedDigests compares the digests of two different seeds: they
// must differ, unless the workload draws no randomness, in which case
// they must be identical.
func checkSeedDigests(seedDigest, otherDigest string, seedInvariant bool) error {
	if seedInvariant && seedDigest != otherDigest {
		return errors.New("a workload that draws no randomness changed with the seed")
	}
	if !seedInvariant && seedDigest == otherDigest {
		return errors.New("results did not change with the seed")
	}
	return nil
}

// checkBytes verifies two result encodings are byte-identical.
func checkBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Errorf("result bytes differ at offset %d (%d vs %d bytes)", n, len(got), len(want))
}

// ledger persists each (source, workload, seed) digest across runs, so
// two runs of one seed on the same code must agree.
type ledger struct {
	path    string
	Digests map[string]string `json:"digests"`
}

func openLedger(path string) (*ledger, error) {
	l := &ledger{path: path, Digests: map[string]string{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	if l.Digests == nil {
		l.Digests = map[string]string{}
	}
	return l, nil
}

// check compares d with the digest recorded under key, recording it
// when the key is new.
func (l *ledger) check(key, d string) error {
	if prev, ok := l.Digests[key]; ok {
		if prev != d {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of %s", d[:12], prev[:12], key)
		}
		return nil
	}
	l.Digests[key] = d
	return nil
}

// save writes the ledger through a temporary file and rename.
func (l *ledger) save() error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}
