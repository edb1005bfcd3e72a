package batch

import (
	"fmt"
	"math"
	"sort"

	"hplsim/internal/sim"
	"hplsim/internal/stats"
)

// NodeModel maps a job's ideal demand (Job.Work) to the wall time it
// actually occupies its node allocation. Implementations must be pure
// functions of (job, nodes, rng-stream): every random decision comes from
// the supplied stream, which the simulator derives per job from the run
// seed — so the drawn runtime for a job is independent of the scheduling
// policy, and policy comparisons on one trace see identical node behaviour.
type NodeModel interface {
	Name() string
	Runtime(j Job, nodes int, rng *sim.RNG) sim.Duration
}

// ExactModel runs every job in exactly its ideal time: a noise-free
// machine with perfectly accurate nodes. It isolates pure queueing effects
// and is the reference point for the Std-vs-HPL contrast.
type ExactModel struct{}

// Name implements NodeModel.
func (ExactModel) Name() string { return "exact" }

// Runtime implements NodeModel.
func (ExactModel) Runtime(j Job, nodes int, rng *sim.RNG) sim.Duration { return j.Work }

// EmpiricalModel draws per-job slowdowns from a measured distribution of
// single-node kernel runs. A job spanning n nodes advances at the pace of
// its slowest node (the BSP barrier argument of the paper's Section II),
// so the model draws the max-order statistic of n samples from the
// empirical slowdown CDF: quantile(u^(1/n)). Build one from kernel runs
// with experiments.BatchCalibrate.
type EmpiricalModel struct {
	label string
	// slowdowns is the sorted sample set; each entry is measured elapsed
	// over ideal time for one full single-node kernel run.
	slowdowns []float64
}

// NewEmpiricalModel sorts a copy of the samples. Every sample must be
// positive; at least one is required.
func NewEmpiricalModel(label string, samples []float64) (*EmpiricalModel, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("batch: empirical model %q: no slowdown samples", label)
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	for _, v := range s {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("batch: empirical model %q: bad slowdown sample %v", label, v)
		}
	}
	sort.Float64s(s)
	return &EmpiricalModel{label: label, slowdowns: s}, nil
}

// Name implements NodeModel.
func (m *EmpiricalModel) Name() string { return m.label }

// MaxSlowdown is the largest observed sample — an upper bound on any
// runtime the model can produce, useful for sizing walltime estimates.
func (m *EmpiricalModel) MaxSlowdown() float64 { return m.slowdowns[len(m.slowdowns)-1] }

// Runtime implements NodeModel: Work scaled by the drawn max-of-n-nodes
// slowdown, looked up as an empirical quantile.
func (m *EmpiricalModel) Runtime(j Job, nodes int, rng *sim.RNG) sim.Duration {
	q := stats.MaxOfN(rng.Float64(), nodes)
	idx := int(q * float64(len(m.slowdowns)))
	if idx >= len(m.slowdowns) {
		idx = len(m.slowdowns) - 1
	}
	return sim.Duration(float64(j.Work) * m.slowdowns[idx])
}

// UniformModel draws each job's slowdown as the max over its nodes of
// U(Lo, Hi) per-node slowdowns. It is the synthetic stand-in for an
// empirical distribution in property tests: runtimes are bounded by
// Work*Hi, so estimates of Est >= Work*Hi are guaranteed upper bounds and
// the EASY head-reservation oracle applies.
type UniformModel struct {
	Label string
	// Lo and Hi bound the per-node slowdown factor; 1 <= Lo <= Hi.
	Lo, Hi float64
}

// Validate reports the first structural problem with the model.
func (m UniformModel) Validate() error {
	if !(m.Lo >= 1) || !(m.Hi >= m.Lo) || math.IsInf(m.Hi, 0) {
		return fmt.Errorf("batch: uniform model %q: need 1 <= Lo <= Hi, got [%v, %v]", m.Label, m.Lo, m.Hi)
	}
	return nil
}

// Name implements NodeModel.
func (m UniformModel) Name() string {
	if m.Label != "" {
		return m.Label
	}
	return "uniform"
}

// Runtime implements NodeModel.
func (m UniformModel) Runtime(j Job, nodes int, rng *sim.RNG) sim.Duration {
	s := m.Lo + (m.Hi-m.Lo)*stats.MaxOfN(rng.Float64(), nodes)
	return sim.Duration(float64(j.Work) * s)
}
