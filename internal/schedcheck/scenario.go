// Package schedcheck is a property-based testing harness for the simulated
// scheduler. It generates randomized-but-seeded scenarios (HPC rank mixes,
// NAS-like phase patterns, daemon noise schedules, topologies from 1x1x1 up
// to wide 4x16x2 multi-word nodes) and checks metamorphic and invariant
// oracles over full simulation traces:
//
//   - determinism: the same scenario replayed twice yields an identical
//     event stream and identical observables;
//   - class-priority dominance: no CFS task is switched in while an HPC
//     task is runnable on the same CPU;
//   - fork-time-only migration: under the HPL policy an HPC task moves
//     CPUs at most once, at fork placement, and never afterwards;
//   - noise insulation: adding CFS daemons must not change any HPC rank's
//     completion time, busy time, or migration count;
//   - permutation invariance: reassigning the rank workloads across fork
//     slots yields an isomorphic schedule (per-workload observables are
//     unchanged);
//   - time-rescaling consistency: scaling every scenario duration by 2
//     scales every HPC observable by exactly 2.
//
// The metamorphic oracles are exact, not tolerance-based: they hold on the
// "ideal physics" machine (no switch or tick cost, no SMT slowdown, no
// cache sensitivity) under the HPL balance policy with at most one rank per
// CPU, and each oracle carries an applicability predicate encoding exactly
// those conditions. Failing scenarios auto-shrink to a minimal repro and
// serialize to a replay file runnable by cmd/schedcheck.
package schedcheck

import (
	"fmt"

	"hplsim/internal/sim"
	"hplsim/internal/topo"
)

// Physics selects the machine model of a scenario.
const (
	// PhysicsIdeal is the frictionless machine: zero switch and tick
	// cost, no SMT slowdown, cache-insensitive ranks. The metamorphic
	// oracles hold exactly on it.
	PhysicsIdeal = "ideal"
	// PhysicsRealistic keeps the kernel's default costs; only the
	// invariant oracles (determinism, dominance, migration) apply.
	PhysicsRealistic = "realistic"
)

// Scheme selects the balance policy of a scenario.
const (
	// SchemeHPL is the paper's policy: fork-time placement only.
	SchemeHPL = "hpl"
	// SchemeStandard is vanilla dynamic balancing.
	SchemeStandard = "standard"
)

// TopoSpec is a serializable topology: chips x cores x threads. The harness
// explores 1x1x1 up to 4x16x2 (128 CPUs — wide enough that CPU masks span
// multiple words), with the paper's 2x2x2 POWER6 shape in the common range.
type TopoSpec struct {
	Chips   int
	Cores   int
	Threads int
}

// Topology converts the spec to the simulator's topology type.
func (t TopoSpec) Topology() topo.Topology {
	return topo.Topology{Chips: t.Chips, CoresPerChip: t.Cores, ThreadsPerCore: t.Threads}
}

// NumCPUs reports the logical CPU count.
func (t TopoSpec) NumCPUs() int { return t.Chips * t.Cores * t.Threads }

// Phase is one compute/sleep cycle of a rank program, repeated Iters times.
// In barrier mode the sleep is replaced by a barrier arrival.
type Phase struct {
	Compute sim.Duration
	Sleep   sim.Duration `json:",omitempty"`
	Iters   int
}

// RankSpec describes one HPC rank slot. Start is the spawn offset in
// independent mode; in barrier mode all ranks launch together at LaunchAt.
type RankSpec struct {
	Start  sim.Duration `json:",omitempty"`
	Phases []Phase
}

// serial is the rank's total compute+sleep demand.
func (r RankSpec) serial() sim.Duration {
	var total sim.Duration
	for _, p := range r.Phases {
		total += sim.Duration(p.Iters) * (p.Compute + p.Sleep)
	}
	return total
}

// iters is the rank's total phase-iteration count (= barrier arrivals in
// barrier mode).
func (r RankSpec) iters() int {
	n := 0
	for _, p := range r.Phases {
		n += p.Iters
	}
	return n
}

// NoiseSpec describes one periodic CFS daemon.
type NoiseSpec struct {
	Period  sim.Duration
	Service sim.Duration
}

// RTSpec describes one periodic SCHED_FIFO noise task pinned to a single
// CPU. Pinning keeps real-time placement independent of what the other
// classes are doing, so the metamorphic comparisons stay exact.
type RTSpec struct {
	CPU     int
	Prio    int
	Period  sim.Duration
	Service sim.Duration
}

// ChaosSpec mirrors sched.Chaos in the scenario schema.
type ChaosSpec struct {
	HPCMigration bool `json:",omitempty"`
	HPCNoRotate  bool `json:",omitempty"`
}

// Scenario is one self-contained, seeded simulation setup. It serializes to
// JSON (durations as integer nanoseconds) for repro files.
type Scenario struct {
	Seed    uint64
	Topo    TopoSpec
	Physics string
	Scheme  string
	HZ      int

	// Barrier couples the ranks through an MPI world with spin-then-block
	// barriers after every phase iteration; otherwise ranks run
	// independently, spawned at their Start offsets.
	Barrier bool `json:",omitempty"`
	// SpinThreshold is the barrier busy-wait window (barrier mode only;
	// always explicit and positive so it participates in rescaling).
	SpinThreshold sim.Duration `json:",omitempty"`
	// LaunchAt is when the MPI world launches (barrier mode only).
	LaunchAt sim.Duration `json:",omitempty"`

	Ranks   []RankSpec
	Daemons []NoiseSpec `json:",omitempty"`
	RTNoise []RTSpec    `json:",omitempty"`

	// Horizon bounds the simulation; it is sized so every rank finishes.
	Horizon sim.Duration

	Chaos ChaosSpec `json:",omitempty"`
}

// Validate reports the first structural problem with the scenario.
func (s Scenario) Validate() error {
	if err := s.Topo.Topology().Validate(); err != nil {
		return err
	}
	if s.Topo.Chips > 4 || s.Topo.Cores > 16 || s.Topo.Threads > 2 {
		return fmt.Errorf("schedcheck: topology %v exceeds the 4x16x2 envelope", s.Topo)
	}
	if s.Physics != PhysicsIdeal && s.Physics != PhysicsRealistic {
		return fmt.Errorf("schedcheck: unknown physics %q", s.Physics)
	}
	if s.Scheme != SchemeHPL && s.Scheme != SchemeStandard {
		return fmt.Errorf("schedcheck: unknown scheme %q", s.Scheme)
	}
	if s.HZ <= 0 {
		return fmt.Errorf("schedcheck: HZ must be positive, got %d", s.HZ)
	}
	if len(s.Ranks) == 0 {
		return fmt.Errorf("schedcheck: scenario has no ranks")
	}
	for i, r := range s.Ranks {
		if len(r.Phases) == 0 {
			return fmt.Errorf("schedcheck: rank %d has no phases", i)
		}
		for j, p := range r.Phases {
			if p.Compute <= 0 || p.Iters <= 0 || p.Sleep < 0 {
				return fmt.Errorf("schedcheck: rank %d phase %d is degenerate: %+v", i, j, p)
			}
		}
		if r.Start < 0 {
			return fmt.Errorf("schedcheck: rank %d has negative start", i)
		}
	}
	if s.Barrier {
		if s.SpinThreshold <= 0 {
			return fmt.Errorf("schedcheck: barrier mode needs a positive spin threshold")
		}
		// Barrier release needs every rank to arrive: unequal iteration
		// counts would deadlock the world.
		want := s.Ranks[0].iters()
		for i, r := range s.Ranks {
			if r.iters() != want {
				return fmt.Errorf("schedcheck: barrier mode rank %d has %d iterations, rank 0 has %d", i, r.iters(), want)
			}
		}
	}
	for i, d := range s.Daemons {
		if d.Period <= 0 || d.Service <= 0 {
			return fmt.Errorf("schedcheck: daemon %d is degenerate: %+v", i, d)
		}
	}
	for i, r := range s.RTNoise {
		if r.CPU < 0 || r.CPU >= s.Topo.NumCPUs() {
			return fmt.Errorf("schedcheck: rt noise %d pinned to CPU %d of %d", i, r.CPU, s.Topo.NumCPUs())
		}
		if r.Period <= 0 || r.Service <= 0 || r.Prio < 1 || r.Prio > 99 {
			return fmt.Errorf("schedcheck: rt noise %d is degenerate: %+v", i, r)
		}
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("schedcheck: horizon must be positive")
	}
	return nil
}

// TaskCount is the number of workload tasks the scenario creates (ranks
// plus noise tasks; per-CPU idle tasks excluded). The shrinker minimizes it.
func (s Scenario) TaskCount() int {
	return len(s.Ranks) + len(s.Daemons) + len(s.RTNoise)
}

// clone deep-copies the scenario so transforms never alias slices.
func (s Scenario) clone() Scenario {
	c := s
	c.Ranks = make([]RankSpec, len(s.Ranks))
	for i, r := range s.Ranks {
		c.Ranks[i] = r
		c.Ranks[i].Phases = append([]Phase(nil), r.Phases...)
	}
	c.Daemons = append([]NoiseSpec(nil), s.Daemons...)
	c.RTNoise = append([]RTSpec(nil), s.RTNoise...)
	return c
}

// withoutCFSNoise is the noise-insulation counterpart: the same scenario
// with every CFS daemon removed.
func (s Scenario) withoutCFSNoise() Scenario {
	c := s.clone()
	c.Daemons = nil
	return c
}

// rescaled multiplies every duration in the scenario by factor. The factor
// must be a power of two so that float64 work arithmetic scales exactly.
func (s Scenario) rescaled(factor int64) Scenario {
	c := s.clone()
	f := sim.Duration(factor)
	for i := range c.Ranks {
		c.Ranks[i].Start *= f
		for j := range c.Ranks[i].Phases {
			c.Ranks[i].Phases[j].Compute *= f
			c.Ranks[i].Phases[j].Sleep *= f
		}
	}
	for i := range c.Daemons {
		c.Daemons[i].Period *= f
		c.Daemons[i].Service *= f
	}
	for i := range c.RTNoise {
		c.RTNoise[i].Period *= f
		c.RTNoise[i].Service *= f
	}
	c.SpinThreshold *= f
	c.LaunchAt *= f
	c.Horizon *= f
	return c
}

// rotation is the workload permutation used by the permutation oracle:
// workload (slot+1) mod n runs in fork slot `slot`. Any nontrivial
// permutation works; a rotation touches every slot.
func rotation(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i + 1) % n
	}
	return p
}
