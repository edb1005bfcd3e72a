package schedcheck

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"hplsim/internal/pool"
	"hplsim/internal/schedcheck/prop"
	"hplsim/internal/sim"
)

// corpusSize is the seeded scenario budget the CI suite must keep green.
const corpusSize = 200

// TestScenarioCorpus runs the full oracle battery over the first corpusSize
// generated scenarios. Any failure is shrunk and dumped so the log carries a
// ready-to-commit repro.
func TestScenarioCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is not short")
	}
	type bad struct {
		seed uint64
		fail *prop.Failure
	}
	var mu sync.Mutex
	var fails []bad
	pool.ForN(corpusSize, 0, func(i int) {
		seed := uint64(i) + 1
		s := Generate(seed)
		if err := s.Validate(); err != nil {
			mu.Lock()
			fails = append(fails, bad{seed, &prop.Failure{Oracle: prop.OracleInvalid, Detail: err.Error()}})
			mu.Unlock()
			return
		}
		if f := Check(s); f != nil {
			mu.Lock()
			fails = append(fails, bad{seed, f})
			mu.Unlock()
		}
	})
	for _, b := range fails {
		t.Errorf("seed %d: %v", b.seed, b.fail)
	}
	if len(fails) > 0 {
		small, f := Harness.Shrink(Generate(fails[0].seed), 0)
		data, _ := json.MarshalIndent(small, "", "  ")
		t.Logf("shrunk repro for seed %d (%v):\n%s", fails[0].seed, f, data)
	}
}

// TestGenerateDeterministic pins the generator contract: a scenario is a
// pure function of its seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\nvs\n%+v", seed, a, b)
		}
		if a.Chaos.HPCMigration {
			t.Fatalf("seed %d: generator produced a chaos scenario", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
	}
}

// TestScenarioRoundTrip checks that scenarios survive the JSON encoding used
// by repro files without loss.
func TestScenarioRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := Generate(seed)
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("seed %d: scenario changed across JSON round trip:\n%+v\nvs\n%+v", seed, s, back)
		}
	}
}

// TestRescaledScalesEverything guards the rescale transform itself: every
// duration field must be multiplied, or the rescale oracle would compare
// incomparable runs.
func TestRescaledScalesEverything(t *testing.T) {
	s := Scenario{
		Seed:          3,
		Topo:          TopoSpec{Chips: 2, Cores: 2, Threads: 2},
		Physics:       PhysicsIdeal,
		Scheme:        SchemeHPL,
		HZ:            250,
		Barrier:       true,
		SpinThreshold: sim.Millisecond,
		LaunchAt:      2 * sim.Millisecond,
		Ranks: []RankSpec{
			{Start: sim.Millisecond, Phases: []Phase{{Compute: sim.Millisecond, Sleep: 100 * sim.Microsecond, Iters: 2}}},
		},
		Daemons: []NoiseSpec{{Period: 5 * sim.Millisecond, Service: 50 * sim.Microsecond}},
		RTNoise: []RTSpec{{CPU: 0, Prio: 60, Period: 7 * sim.Millisecond, Service: 30 * sim.Microsecond}},
		Horizon: 100 * sim.Millisecond,
	}
	r := s.rescaled(2)
	checks := []struct {
		name string
		got  sim.Duration
		base sim.Duration
	}{
		{"spin", r.SpinThreshold, s.SpinThreshold},
		{"launch", r.LaunchAt, s.LaunchAt},
		{"start", r.Ranks[0].Start, s.Ranks[0].Start},
		{"compute", r.Ranks[0].Phases[0].Compute, s.Ranks[0].Phases[0].Compute},
		{"sleep", r.Ranks[0].Phases[0].Sleep, s.Ranks[0].Phases[0].Sleep},
		{"daemon period", r.Daemons[0].Period, s.Daemons[0].Period},
		{"daemon service", r.Daemons[0].Service, s.Daemons[0].Service},
		{"rt period", r.RTNoise[0].Period, s.RTNoise[0].Period},
		{"rt service", r.RTNoise[0].Service, s.RTNoise[0].Service},
		{"horizon", r.Horizon, s.Horizon},
	}
	for _, c := range checks {
		if c.got != 2*c.base {
			t.Errorf("%s: %v, want %v doubled", c.name, c.got, c.base)
		}
	}
	// The original must be untouched (rescaled works on a deep copy).
	if s.Ranks[0].Phases[0].Compute != sim.Millisecond {
		t.Error("rescaled mutated its receiver")
	}
}

// TestValidateRejects enumerates the structural guards a repro file (or a
// buggy shrinker candidate) must not slip past.
func TestValidateRejects(t *testing.T) {
	ok := Generate(1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	mut := func(f func(*Scenario)) Scenario {
		c := ok.clone()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		s    Scenario
	}{
		{"huge topology", mut(func(s *Scenario) { s.Topo.Chips = 5 })},
		{"zero HZ", mut(func(s *Scenario) { s.HZ = 0 })},
		{"bad physics", mut(func(s *Scenario) { s.Physics = "quantum" })},
		{"bad scheme", mut(func(s *Scenario) { s.Scheme = "fifo" })},
		{"no ranks", mut(func(s *Scenario) { s.Ranks = nil })},
		{"empty phases", mut(func(s *Scenario) { s.Ranks[0].Phases = nil })},
		{"zero compute", mut(func(s *Scenario) { s.Ranks[0].Phases[0].Compute = 0 })},
		{"zero horizon", mut(func(s *Scenario) { s.Horizon = 0 })},
		{"barrier without spin", mut(func(s *Scenario) {
			s.Barrier = true
			s.SpinThreshold = 0
		})},
		{"rt off-topology", mut(func(s *Scenario) {
			s.RTNoise = []RTSpec{{CPU: s.Topo.NumCPUs(), Prio: 50, Period: sim.Millisecond, Service: 100 * sim.Microsecond}}
		})},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken scenario", c.name)
		}
	}
}

// TestRotation sanity-checks the permutation used by the oracle.
func TestRotation(t *testing.T) {
	got := rotation(4)
	want := []int{1, 2, 3, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation(4) = %v, want %v", got, want)
	}
}

// TestDiffObs covers the comparator driving three of the oracles.
func TestDiffObs(t *testing.T) {
	a := []rankObs{{Completed: true, Runtime: 10, Busy: 8, Migrations: 1}}
	if d := diffObs(a, a, true, 1); d != "" {
		t.Fatalf("identical observables diff: %s", d)
	}
	scaled := []rankObs{{Completed: true, Runtime: 20, Busy: 16, Migrations: 1}}
	if d := diffObs(a, scaled, true, 2); d != "" {
		t.Fatalf("exact 2x scaling diff: %s", d)
	}
	moved := []rankObs{{Completed: true, Runtime: 10, Busy: 8, Migrations: 2}}
	if d := diffObs(a, moved, true, 1); d == "" {
		t.Fatal("migration mismatch not reported")
	}
	if d := diffObs(a, moved, false, 1); d != "" {
		t.Fatalf("migration mismatch reported with withMigrations=false: %s", d)
	}
	slower := []rankObs{{Completed: true, Runtime: 11, Busy: 8, Migrations: 1}}
	if d := diffObs(a, slower, true, 1); d == "" {
		t.Fatal("runtime mismatch not reported")
	}
}
