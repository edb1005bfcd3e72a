package schedcheck

import (
	"fmt"
	"strings"

	"hplsim/internal/schedcheck/prop"
	"hplsim/internal/sim"
)

// Oracle names, as reported in failures and repro files.
const (
	OracleDominance   = "dominance"
	OracleMigration   = "hpc-migration"
	OracleLatency     = "hpc-wait-latency"
	OracleDeterminism = "determinism"
	OracleFastForward = "fast-forward"
	OracleNoise       = "noise-insulation"
	OraclePermutation = "permutation"
	OracleRescale     = "rescale"
)

// rescaleFactor is the time-rescaling multiplier. It must be a power of two
// so that the kernel's float64 work arithmetic scales without rounding.
const rescaleFactor = 2

// idealHPL reports whether the scenario runs on the exactness-preserving
// configuration: frictionless machine and fork-time-only balancing.
func (s Scenario) idealHPL() bool {
	return s.Physics == PhysicsIdeal && s.Scheme == SchemeHPL
}

// noiseApplicable: adding CFS daemons is exactly invisible to HPC ranks
// when the machine is ideal, balancing is HPL, and no CPU ever queues two
// ranks (oversubscription makes round-robin rotation phase depend on tick
// alignment, which daemons shift).
func (s Scenario) noiseApplicable() bool {
	return s.idealHPL() && len(s.Ranks) <= s.Topo.NumCPUs() && len(s.Daemons) > 0
}

// permApplicable: reassigning workloads across fork slots preserves
// per-workload observables when placement is symmetric (ideal HPL, one rank
// per CPU) and no RT noise singles out specific CPUs. Staggered starts
// combined with sleep phases are excluded: fork placement cannot see a
// sleeping rank, so a later fork may legitimately share its CPU, and which
// pair collides depends on the workload-to-slot assignment. In barrier mode
// every rank is placed at launch, before anyone sleeps, so sleeps are safe.
func (s Scenario) permApplicable() bool {
	if !s.idealHPL() || len(s.Ranks) < 2 ||
		len(s.Ranks) > s.Topo.NumCPUs() || len(s.RTNoise) > 0 {
		return false
	}
	if s.Barrier {
		return true
	}
	for _, r := range s.Ranks {
		for _, p := range r.Phases {
			if p.Sleep > 0 {
				return false
			}
		}
	}
	return true
}

// rescaleApplicable: doubling every duration doubles every HPC observable
// on the ideal machine. RT noise is excluded because its activation stagger
// draws from a modulo-based uniform sampler that does not scale linearly.
func (s Scenario) rescaleApplicable() bool {
	return s.idealHPL() && len(s.Ranks) <= s.Topo.NumCPUs() && len(s.RTNoise) == 0
}

// Harness is the node-kernel property check for the prop core.
var Harness = prop.Harness[Scenario]{
	Generate:   Generate,
	Check:      Check,
	Candidates: candidates,
	Describe: func(s Scenario) string {
		return fmt.Sprintf("%d ranks, %d daemons, %d rt, %s/%s, barrier=%v",
			len(s.Ranks), len(s.Daemons), len(s.RTNoise), s.Physics, s.Scheme, s.Barrier)
	},
	Size: func(s Scenario) string { return fmt.Sprintf("%d tasks", s.TaskCount()) },
}

// Check runs every applicable oracle against the scenario and returns the
// first failure, or nil if all oracles are green. The invariant oracles
// (dominance, fork-time-only migration, determinism) always run; the
// metamorphic oracles run when their applicability predicate holds.
func Check(s Scenario) *prop.Failure {
	if err := s.Validate(); err != nil {
		return &prop.Failure{Oracle: prop.OracleInvalid, Detail: err.Error()}
	}

	base := runOnce(s, nil)
	if f := violationFailure(base); f != nil {
		return f
	}

	again := runOnce(s, nil)
	if base.eventHash != again.eventHash {
		return &prop.Failure{Oracle: OracleDeterminism, Detail: fmt.Sprintf(
			"event-stream fingerprint differs between identical runs: %016x vs %016x",
			base.eventHash, again.eventHash)}
	}
	if d := diffObs(base.obs, again.obs, true, 1); d != "" {
		return &prop.Failure{Oracle: OracleDeterminism, Detail: "observables differ between identical runs: " + d}
	}

	// Fast-forward equivalence: eliding quiescent ticks must be invisible
	// to every observable — the dispatch fingerprint (lane firings are
	// outside it in both modes), per-workload observables, and the full
	// perf counter set except the diagnostic coalescing count. This oracle
	// applies unconditionally: the equivalence claim has no applicability
	// predicate to hide behind.
	ff := runMode(s, nil, true)
	if base.eventHash != ff.eventHash {
		return &prop.Failure{Oracle: OracleFastForward, Detail: fmt.Sprintf(
			"dispatch fingerprint differs between tick modes: std %016x vs ff %016x",
			base.eventHash, ff.eventHash)}
	}
	if d := diffObs(base.obs, ff.obs, true, 1); d != "" {
		return &prop.Failure{Oracle: OracleFastForward, Detail: "fast-forward changed observables: " + d}
	}
	pa, pb := base.perf, ff.perf
	pa.TicksCoalesced, pb.TicksCoalesced = 0, 0
	if pa != pb {
		return &prop.Failure{Oracle: OracleFastForward, Detail: fmt.Sprintf(
			"fast-forward changed perf counters: std %+v vs ff %+v", pa, pb)}
	}

	if s.noiseApplicable() {
		quiet := runOnce(s.withoutCFSNoise(), nil)
		if f := violationFailure(quiet); f != nil {
			return f
		}
		if d := diffObs(quiet.obs, base.obs, true, 1); d != "" {
			return &prop.Failure{Oracle: OracleNoise, Detail: fmt.Sprintf(
				"removing %d CFS daemon(s) changed HPC observables: %s", len(s.Daemons), d)}
		}
	}

	if s.permApplicable() {
		perm := runOnce(s, rotation(len(s.Ranks)))
		if f := violationFailure(perm); f != nil {
			return f
		}
		// Migration counts are excluded: fork slot 0 inherits CPU 0 and
		// never counts a placement migration, whichever workload runs it.
		if d := diffObs(base.obs, perm.obs, false, 1); d != "" {
			return &prop.Failure{Oracle: OraclePermutation, Detail: "rotating workloads across fork slots changed per-workload observables: " + d}
		}
	}

	if s.rescaleApplicable() {
		scaled := runOnce(s.rescaled(rescaleFactor), nil)
		if f := violationFailure(scaled); f != nil {
			return f
		}
		if d := diffObs(base.obs, scaled.obs, true, rescaleFactor); d != "" {
			return &prop.Failure{Oracle: OracleRescale, Detail: fmt.Sprintf(
				"scaling all durations by %d did not scale HPC observables by %d: %s",
				rescaleFactor, rescaleFactor, d)}
		}
	}

	return nil
}

// violationFailure converts trace-probe violations of a run into a Failure.
func violationFailure(r report) *prop.Failure {
	if len(r.domViol) > 0 {
		return &prop.Failure{Oracle: OracleDominance, Detail: summarize(r.domViol)}
	}
	if len(r.migViol) > 0 {
		return &prop.Failure{Oracle: OracleMigration, Detail: summarize(r.migViol)}
	}
	if len(r.latViol) > 0 {
		return &prop.Failure{Oracle: OracleLatency, Detail: summarize(r.latViol)}
	}
	return nil
}

func summarize(viol []string) string {
	const maxShown = 3
	shown := viol
	if len(shown) > maxShown {
		shown = shown[:maxShown]
	}
	out := strings.Join(shown, "; ")
	if len(viol) > maxShown {
		out += fmt.Sprintf("; ... (%d total)", len(viol))
	}
	return out
}

// diffObs compares two observable sets per workload; b is expected to equal
// a with every duration multiplied by scale. It returns "" on a match, or a
// description of the first mismatch. Migration counts are compared only
// when withMigrations is set.
func diffObs(a, b []rankObs, withMigrations bool, scale int64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("workload count %d vs %d", len(a), len(b))
	}
	for w := range a {
		x, y := a[w], b[w]
		if x.Completed != y.Completed {
			return fmt.Sprintf("workload %d: completed %v vs %v", w, x.Completed, y.Completed)
		}
		if x.Runtime*sim.Duration(scale) != y.Runtime {
			return fmt.Sprintf("workload %d: runtime %v*%d vs %v", w, x.Runtime, scale, y.Runtime)
		}
		if x.Busy*sim.Duration(scale) != y.Busy {
			return fmt.Sprintf("workload %d: busy %v*%d vs %v", w, x.Busy, scale, y.Busy)
		}
		if withMigrations && x.Migrations != y.Migrations {
			return fmt.Sprintf("workload %d: migrations %d vs %d", w, x.Migrations, y.Migrations)
		}
	}
	return ""
}
