package batchcheck

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"hplsim/internal/batch"
	"hplsim/internal/schedcheck/prop"
)

// TestCorpus runs the full 200-seed corpus CI uses: every generated
// scenario must satisfy all applicable oracles.
func TestCorpus(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		s := Generate(seed)
		if f := Check(s); f != nil {
			data, _ := json.MarshalIndent(s, "", "  ")
			t.Fatalf("seed %d: %v\nscenario:\n%s", seed, f, data)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generator is not a pure function of the seed", seed)
		}
	}
}

func TestGenerateCoversSpace(t *testing.T) {
	policies := map[string]bool{}
	models := map[string]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		s := Generate(seed)
		policies[s.Policy] = true
		models[s.Model] = true
	}
	for _, p := range batch.PolicyNames() {
		if !policies[p] {
			t.Errorf("200 seeds never generated policy %q", p)
		}
	}
	for _, m := range []string{ModelExact, ModelNoisy} {
		if !models[m] {
			t.Errorf("200 seeds never generated model %q", m)
		}
	}
}

// chaosScenario is a base scenario the fault injectors visibly corrupt.
func chaosScenario(policy string, chaos batch.Chaos) Scenario {
	s := Generate(12)
	s.Policy = policy
	s.Chaos = chaos
	return s
}

// litmusScenario is the hand-built 4-node backfill litmus: job 1 (whole
// machine) blocks behind job 0 (3 nodes, long) and is the job EASY holds a
// reservation for; job 2 backfills the hole. Starving the head here
// strands job 1 with a recorded reservation, which is exactly what the
// easy-head oracle must catch.
func litmusScenario(policy string, chaos batch.Chaos) Scenario {
	const sec = 1_000_000_000
	return Scenario{
		Seed: 1, Nodes: 4, RanksPerNode: 1,
		Policy: policy, Model: ModelExact,
		Jobs: []batch.Job{
			{ID: 0, Ranks: 3, Est: 100 * sec, Work: 100 * sec, Arrival: 0},
			{ID: 1, Ranks: 4, Est: 10 * sec, Work: 10 * sec, Arrival: 1 * sec},
			{ID: 2, Ranks: 1, Est: 10 * sec, Work: 10 * sec, Arrival: 2 * sec},
		},
		Chaos: chaos,
	}
}

// TestOraclesCatchChaos proves each oracle still fires on the fault it was
// built for — the harness's own regression test against rotting oracles.
func TestOraclesCatchChaos(t *testing.T) {
	cases := []struct {
		name   string
		s      Scenario
		oracle string
	}{
		{"overcommit breaks conservation", chaosScenario("easy", batch.Chaos{Overcommit: true}), OracleConservation},
		{"starved head breaks fcfs order", chaosScenario("fcfs", batch.Chaos{StarveHead: true}), OracleFCFSOrder},
		{"starved head breaks the easy reservation", litmusScenario("easy", batch.Chaos{StarveHead: true}), OracleEASYHead},
	}
	for _, tc := range cases {
		f := Check(tc.s)
		if f == nil {
			t.Errorf("%s: no oracle fired", tc.name)
			continue
		}
		if f.Oracle != tc.oracle {
			t.Errorf("%s: oracle %q fired, want %q (%s)", tc.name, f.Oracle, tc.oracle, f.Detail)
		}
	}
}

// TestShrinkReduces pins that the shrinker makes failing scenarios
// strictly smaller while preserving the failing oracle.
func TestShrinkReduces(t *testing.T) {
	s := chaosScenario("easy", batch.Chaos{Overcommit: true})
	small, f := Harness.Shrink(s, 0)
	if f == nil {
		t.Fatal("shrink lost the failure")
	}
	if f.Oracle != OracleConservation {
		t.Fatalf("shrink wandered to oracle %q", f.Oracle)
	}
	if len(small.Jobs) >= len(s.Jobs) {
		t.Fatalf("shrink kept %d of %d jobs", len(small.Jobs), len(s.Jobs))
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("shrunk scenario is invalid: %v", err)
	}
	// The shrunk scenario must still fail standalone (no hidden state).
	if f2 := Check(small); f2 == nil || f2.Oracle != f.Oracle {
		t.Fatalf("shrunk scenario does not reproduce: %v", f2)
	}
}

func TestShrinkPassingScenarioIsIdentity(t *testing.T) {
	s := Generate(3)
	same, f := Harness.Shrink(s, 0)
	if f != nil {
		t.Fatalf("passing scenario shrank to a failure: %v", f)
	}
	if !reflect.DeepEqual(s, same) {
		t.Fatal("passing scenario was modified by Shrink")
	}
}

func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	small, f := Harness.Shrink(chaosScenario("fcfs", batch.Chaos{StarveHead: true}), 0)
	if f == nil {
		t.Fatal("expected a failure to pin")
	}
	r := prop.Repro[Scenario]{Version: prop.ReproVersion, Note: "round-trip test", Expect: "fail", Oracle: f.Oracle, Scenario: small}
	path := filepath.Join(dir, "x.json")
	if err := prop.WriteRepro(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := prop.ReadRepro[Scenario](path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatal("repro did not survive the round trip")
	}
	if err := Harness.ReplayFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedRepros replays the corpus CI replays: the committed files
// must keep reproducing their recorded verdicts.
func TestCommittedRepros(t *testing.T) {
	if err := Harness.ReplayDir("testdata/repros"); err != nil {
		t.Fatal(err)
	}
}
