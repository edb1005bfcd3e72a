package prop

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ReproVersion is bumped when a scenario schema changes incompatibly.
const ReproVersion = 1

// Repro is a committed replay file: a scenario plus the outcome it must
// reproduce. Expect "pass" pins a scenario that once failed and was fixed
// (a regression test); Expect "fail" pins a deliberately broken
// configuration (chaos) that the oracles must keep catching.
type Repro[S any] struct {
	Version int
	Note    string `json:",omitempty"`
	// Expect is "pass" or "fail".
	Expect string
	// Oracle, when set with Expect "fail", is the oracle that must fire.
	Oracle   string `json:",omitempty"`
	Scenario S
}

// WriteRepro serializes the repro as indented JSON.
func WriteRepro[S any](path string, r Repro[S]) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a repro file. Decoding is strict: a field the schema
// does not know (a misspelling, or one a later version removed) is an
// error, so a repro never silently checks a different scenario from the
// one written down.
func ReadRepro[S any](path string) (Repro[S], error) {
	var r Repro[S]
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return r, fmt.Errorf("%s: trailing data after the repro object", path)
	}
	if r.Version != ReproVersion {
		return r, fmt.Errorf("%s: repro version %d, this harness speaks %d", path, r.Version, ReproVersion)
	}
	if r.Expect != "pass" && r.Expect != "fail" {
		return r, fmt.Errorf("%s: expect must be \"pass\" or \"fail\", got %q", path, r.Expect)
	}
	return r, nil
}

// Replay checks the repro's scenario twice and verifies both that the
// verdict is deterministic and that it matches the recorded expectation.
func (h Harness[S]) Replay(r Repro[S]) error {
	first := h.Check(r.Scenario)
	second := h.Check(r.Scenario)
	if (first == nil) != (second == nil) ||
		(first != nil && first.Oracle != second.Oracle) {
		return fmt.Errorf("verdict is not deterministic: %v vs %v", first, second)
	}
	switch r.Expect {
	case "fail":
		if first == nil {
			return fmt.Errorf("expected oracle %q to fire, but all oracles passed", r.Oracle)
		}
		if r.Oracle != "" && first.Oracle != r.Oracle {
			return fmt.Errorf("expected oracle %q, got %v", r.Oracle, first)
		}
	default: // "pass"
		if first != nil {
			return fmt.Errorf("expected all oracles to pass, got %v", first)
		}
	}
	return nil
}

// ReplayFile replays one repro file.
func (h Harness[S]) ReplayFile(path string) error {
	r, err := ReadRepro[S](path)
	if err != nil {
		return err
	}
	if err := h.Replay(r); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// ReplayDir replays every *.json repro under dir, in name order, and
// returns the first error.
func (h Harness[S]) ReplayDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s: no repro files", dir)
	}
	for _, name := range names {
		if err := h.ReplayFile(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}
