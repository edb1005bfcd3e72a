package prop_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hplsim/internal/batch/batchcheck"
	"hplsim/internal/schedcheck"
	"hplsim/internal/schedcheck/prop"
)

// TestReadReproRejects covers the repro-file guards for both layers'
// scenario types. Every rejected file differs from the accepted control in
// one defect; the unknown-field cases pin strict decoding, including a
// field a later schema removed (Chaos.ShardSkew).
func TestReadReproRejects(t *testing.T) {
	t.Run("node", func(t *testing.T) { testReadReproRejects(t, schedcheck.Harness) })
	t.Run("batch", func(t *testing.T) { testReadReproRejects(t, batchcheck.Harness) })
}

func testReadReproRejects[S prop.Scenario](t *testing.T, h prop.Harness[S]) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := prop.ReadRepro[S](write("control.json", `{"Version": 1, "Expect": "pass", "Scenario": {"Chaos": {}}}`)); err != nil {
		t.Fatalf("control repro rejected: %v", err)
	}
	cases := []struct{ name, body string }{
		{"malformed JSON", `{`},
		{"future version", `{"Version": 99, "Expect": "pass", "Scenario": {}}`},
		{"bad expectation", `{"Version": 1, "Expect": "maybe", "Scenario": {}}`},
		{"unknown field", `{"Version": 1, "Expect": "pass", "Expected": "fail", "Scenario": {}}`},
		{"removed scenario field", `{"Version": 1, "Expect": "pass", "Scenario": {"Chaos": {"ShardSkew": true}}}`},
		{"trailing data", `{"Version": 1, "Expect": "pass", "Scenario": {}} {}`},
	}
	for _, c := range cases {
		path := write(strings.ReplaceAll(c.name, " ", "-")+".json", c.body)
		if _, err := prop.ReadRepro[S](path); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := prop.ReadRepro[S](filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := os.Remove(filepath.Join(dir, "control.json")); err != nil {
		t.Fatal(err)
	}
	if err := h.ReplayDir(dir); err == nil {
		t.Error("ReplayDir over broken files did not error")
	}
	if err := h.ReplayDir(filepath.Join(dir, "empty")); err == nil {
		t.Error("ReplayDir over a missing dir did not error")
	}
}

// toy is a one-number scenario: it fails the "big" oracle at N >= 3 and
// is invalid below zero.
type toy struct{ N int }

func (s toy) Validate() error {
	if s.N < 0 {
		return errors.New("toy: negative")
	}
	return nil
}

func toyHarness(failAt int) prop.Harness[toy] {
	return prop.Harness[toy]{
		Kind:     "toy",
		Generate: func(seed uint64) toy { return toy{N: int(seed)} },
		Check: func(s toy) *prop.Failure {
			if err := s.Validate(); err != nil {
				return &prop.Failure{Oracle: prop.OracleInvalid, Detail: err.Error()}
			}
			if s.N >= failAt {
				return &prop.Failure{Oracle: "big", Detail: fmt.Sprintf("N=%d", s.N)}
			}
			return nil
		},
		// The invalid candidate comes first: taking it would "keep
		// failing" with the invalid oracle, so Shrink must skip it.
		Candidates: func(s toy) []toy { return []toy{{N: -1}, {N: s.N / 2}, {N: s.N - 1}} },
		Describe:   func(s toy) string { return fmt.Sprintf("N=%d", s.N) },
		Size:       func(s toy) string { return fmt.Sprintf("N=%d", s.N) },
	}
}

// TestCorpusReportsLowestFailingSeed drives the corpus driver end to end:
// the verbose log is in seed order at any worker count, the lowest failing
// seed is shrunk, and the written repro replays.
func TestCorpusReportsLowestFailingSeed(t *testing.T) {
	h := toyHarness(3)
	dir := t.TempDir()
	var logs []string
	for _, workers := range []int{1, 4} {
		out := filepath.Join(dir, fmt.Sprintf("w%d.json", workers))
		var stdout, stderr bytes.Buffer
		if code := h.Corpus(&stdout, &stderr, 12, 1, workers, 0, out, true); code != 1 {
			t.Fatalf("workers %d: exit %d, want 1", workers, code)
		}
		wantErr := "schedcheck: 10 of 12 toy scenarios failed\n" +
			"seed 3: [big] N=3\n" +
			"shrunk to N=3: [big] N=3\n" +
			"repro written to " + out + "\n"
		if stderr.String() != wantErr {
			t.Fatalf("workers %d: stderr\n%s\nwant\n%s", workers, stderr.String(), wantErr)
		}
		logs = append(logs, stdout.String())
		r, err := prop.ReadRepro[toy](out)
		if err != nil {
			t.Fatal(err)
		}
		if r.Scenario.N != 3 || r.Oracle != "big" || r.Expect != "fail" || r.Note != "shrunk from toy seed 3" {
			t.Fatalf("workers %d: repro %+v", workers, r)
		}
		if err := h.ReplayFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if logs[0] != logs[1] {
		t.Fatalf("verbose log depends on the worker count:\n%s\nvs\n%s", logs[0], logs[1])
	}
	if !strings.HasPrefix(logs[0], "seed 1: N=1: ok\nseed 2: N=2: ok\nseed 3: N=3: [big] N=3\n") {
		t.Fatalf("verbose log not in seed order:\n%s", logs[0])
	}
}

func TestCorpusGreen(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := toyHarness(100).Corpus(&stdout, &stderr, 5, 10, 2, 0, "", false); code != 0 {
		t.Fatalf("exit %d, want 0; stderr %s", code, stderr.String())
	}
	if got, want := stdout.String(), "schedcheck: 5 toy scenarios (seeds 10..14), all oracles green\n"; got != want {
		t.Fatalf("stdout %q, want %q", got, want)
	}
}

func TestShrinkSkipsInvalidAndRespectsBudget(t *testing.T) {
	h := toyHarness(3)
	small, f := h.Shrink(toy{N: 40}, 0)
	if f == nil || f.Oracle != "big" || small.N != 3 {
		t.Fatalf("Shrink(40) = %+v, %v; want N=3 failing big", small, f)
	}
	// Budget 2 is the input check plus one candidate: 40 -> 20.
	if small, _ := h.Shrink(toy{N: 40}, 2); small.N != 20 {
		t.Fatalf("Shrink(40, budget 2) = %+v, want N=20", small)
	}
	if same, f := h.Shrink(toy{N: 2}, 0); f != nil || same.N != 2 {
		t.Fatalf("passing scenario shrank to %+v, %v", same, f)
	}
}

// TestReplayVerdicts covers the replay verdict matrix on the toy layer.
func TestReplayVerdicts(t *testing.T) {
	h := toyHarness(3)
	cases := []struct {
		r  prop.Repro[toy]
		ok bool
	}{
		{prop.Repro[toy]{Expect: "pass", Scenario: toy{N: 1}}, true},
		{prop.Repro[toy]{Expect: "pass", Scenario: toy{N: 5}}, false},
		{prop.Repro[toy]{Expect: "fail", Scenario: toy{N: 5}}, true},
		{prop.Repro[toy]{Expect: "fail", Oracle: "big", Scenario: toy{N: 5}}, true},
		{prop.Repro[toy]{Expect: "fail", Oracle: "small", Scenario: toy{N: 5}}, false},
		{prop.Repro[toy]{Expect: "fail", Scenario: toy{N: 1}}, false},
	}
	for _, c := range cases {
		if err := h.Replay(c.r); (err == nil) != c.ok {
			t.Errorf("Replay(%+v) = %v, want ok=%v", c.r, err, c.ok)
		}
	}
}
