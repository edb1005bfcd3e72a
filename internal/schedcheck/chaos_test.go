package schedcheck

import (
	"path/filepath"
	"strings"
	"testing"

	"hplsim/internal/schedcheck/prop"
	"hplsim/internal/sim"
)

// chaosScenario is a healthy-looking overloaded scenario with the
// post-fork-migration fault switched on: the kernel re-enables dynamic HPC
// balancing, which the fork-time-only migration oracle must catch.
func chaosScenario() Scenario {
	s := Scenario{
		Seed:    7,
		Topo:    TopoSpec{Chips: 1, Cores: 2, Threads: 2},
		Physics: PhysicsIdeal,
		Scheme:  SchemeHPL,
		HZ:      250,
		Chaos:   ChaosSpec{HPCMigration: true},
	}
	for i := 0; i < 6; i++ {
		s.Ranks = append(s.Ranks, RankSpec{
			Start: sim.Duration(i) * sim.Millisecond,
			Phases: []Phase{
				{Compute: 2 * sim.Millisecond, Sleep: 500 * sim.Microsecond, Iters: 3},
			},
		})
	}
	s.Daemons = []NoiseSpec{{Period: 5 * sim.Millisecond, Service: 200 * sim.Microsecond}}
	s.Horizon = horizonFor(s)
	return s
}

// TestChaosCaughtAndShrunk is the harness's end-to-end self-test: a
// deliberately broken scheduler must be caught by an oracle, shrink to a
// small repro, serialize, and replay deterministically.
func TestChaosCaughtAndShrunk(t *testing.T) {
	s := chaosScenario()
	f := Check(s)
	if f == nil {
		t.Fatal("chaos scenario passed all oracles; fault injection is dead")
	}
	if f.Oracle != OracleMigration && f.Oracle != OracleNoise {
		t.Fatalf("chaos caught by %v, want %s or %s", f, OracleMigration, OracleNoise)
	}
	t.Logf("chaos caught: %v", f)

	small, sf := Harness.Shrink(s, 0)
	if sf == nil {
		t.Fatal("shrink lost the failure")
	}
	if small.TaskCount() > 8 {
		t.Fatalf("shrunk repro still has %d tasks, want <= 8", small.TaskCount())
	}
	if small.TaskCount() > s.TaskCount() {
		t.Fatalf("shrink grew the scenario: %d -> %d tasks", s.TaskCount(), small.TaskCount())
	}
	t.Logf("shrunk %d -> %d tasks, topo %v -> %v, caught by %v",
		s.TaskCount(), small.TaskCount(), s.Topo, small.Topo, sf.Oracle)

	// Round-trip the shrunk scenario through a repro file and replay it.
	path := filepath.Join(t.TempDir(), "chaos.json")
	repro := prop.Repro[Scenario]{
		Version:  prop.ReproVersion,
		Note:     "self-test: post-fork HPC migration fault",
		Expect:   "fail",
		Oracle:   sf.Oracle,
		Scenario: small,
	}
	if err := prop.WriteRepro(path, repro); err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	if err := Harness.ReplayFile(path); err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
}

// TestChaosOffIsClean pins down that the chaos scenario only fails because
// of the injected fault: with chaos off it must pass every oracle.
func TestChaosOffIsClean(t *testing.T) {
	s := chaosScenario()
	s.Chaos = ChaosSpec{}
	if f := Check(s); f != nil {
		t.Fatalf("fault-free twin of the chaos scenario fails: %v", f)
	}
}

// TestShrinkPassingScenario: shrinking a green scenario is the identity.
func TestShrinkPassingScenario(t *testing.T) {
	s := Generate(1)
	small, f := Harness.Shrink(s, 0)
	if f != nil {
		t.Fatalf("green scenario shrank to a failure: %v", f)
	}
	if small.TaskCount() != s.TaskCount() {
		t.Fatal("shrink modified a passing scenario")
	}
}

// TestReplayExpectations covers the replay verdict matrix.
func TestReplayExpectations(t *testing.T) {
	green := Generate(1)
	if err := Harness.Replay(prop.Repro[Scenario]{Version: prop.ReproVersion, Expect: "pass", Scenario: green}); err != nil {
		t.Fatalf("pass-expectation on a green scenario: %v", err)
	}
	err := Harness.Replay(prop.Repro[Scenario]{Version: prop.ReproVersion, Expect: "fail", Oracle: OracleMigration, Scenario: green})
	if err == nil || !strings.Contains(err.Error(), "all oracles passed") {
		t.Fatalf("fail-expectation on a green scenario: %v", err)
	}
	chaos := chaosScenario()
	if err := Harness.Replay(prop.Repro[Scenario]{Version: prop.ReproVersion, Expect: "fail", Scenario: chaos}); err != nil {
		t.Fatalf("fail-expectation without a pinned oracle: %v", err)
	}
	if err := Harness.Replay(prop.Repro[Scenario]{Version: prop.ReproVersion, Expect: "pass", Scenario: chaos}); err == nil {
		t.Fatal("pass-expectation on a failing scenario did not error")
	}
}

// TestCommittedRepros replays every repro checked in under testdata/repros,
// exactly as the CI job and cmd/schedcheck -replay do.
func TestCommittedRepros(t *testing.T) {
	if err := Harness.ReplayDir(filepath.Join("testdata", "repros")); err != nil {
		t.Fatal(err)
	}
}

// noRotateScenario is an oversubscribed single-CPU scenario with the
// rotation-suppression fault switched on: the HPC class refills an expired
// timeslice without rescheduling, so the queued peer waits far beyond the
// round-robin bound the latency oracle enforces.
func noRotateScenario() Scenario {
	return Scenario{
		Seed:    11,
		Topo:    TopoSpec{Chips: 1, Cores: 1, Threads: 1},
		Physics: PhysicsIdeal,
		Scheme:  SchemeHPL,
		HZ:      250,
		Ranks: []RankSpec{
			{Phases: []Phase{{Compute: 400 * sim.Millisecond, Iters: 1}}},
			{Phases: []Phase{{Compute: 10 * sim.Millisecond, Iters: 1}}},
		},
		Horizon: sim.Duration(sim.Second),
		Chaos:   ChaosSpec{HPCNoRotate: true},
	}
}

// TestChaosNoRotateCaught: suppressed round-robin rotation must be caught
// by the runnable-wait latency oracle. rank1 forks behind one running HPC
// peer, so its bound is one timeslice plus a tick (104ms at HZ 250); with
// rotation suppressed it waits the peer's full 400ms compute.
func TestChaosNoRotateCaught(t *testing.T) {
	f := Check(noRotateScenario())
	if f == nil {
		t.Fatal("no-rotate chaos passed all oracles; the latency oracle is dead")
	}
	if f.Oracle != OracleLatency {
		t.Fatalf("no-rotate chaos caught by %v, want %s", f, OracleLatency)
	}
	t.Logf("chaos caught: %v", f)
}

// TestChaosNoRotateOffIsClean: the fault-free twin must satisfy the
// latency bound — rotation puts rank1 on CPU within timeslice + tick.
func TestChaosNoRotateOffIsClean(t *testing.T) {
	s := noRotateScenario()
	s.Chaos = ChaosSpec{}
	if f := Check(s); f != nil {
		t.Fatalf("fault-free twin of the no-rotate scenario fails: %v", f)
	}
}
