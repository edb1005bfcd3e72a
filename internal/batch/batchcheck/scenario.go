// Package batchcheck is the property-based test harness for the batch
// layer, mirroring internal/schedcheck one level up: a seeded generator
// materialises cluster scenarios (machine size, policy, node model, job
// trace), trace-level oracles check every run (determinism fingerprint,
// node-hour conservation, EASY head-reservation, FCFS dominance,
// completion), failures shrink greedily, and shrunken repros are committed
// as JSON under testdata/repros and replayed in CI.
package batchcheck

import (
	"fmt"

	"hplsim/internal/batch"
)

// Model wire names.
const (
	// ModelExact runs every job in exactly its ideal time.
	ModelExact = "exact"
	// ModelNoisy draws per-node slowdowns uniformly from [1, 1+Spread]
	// and takes the max across the job's nodes.
	ModelNoisy = "noisy"
)

// Scenario is one self-contained batch-layer check: everything Check
// needs to run the cluster simulation and judge it.
type Scenario struct {
	// Seed drives the node-model draws inside the run.
	Seed uint64
	// Nodes and RanksPerNode shape the cluster.
	Nodes        int
	RanksPerNode int
	// Policy is a batch.NewPolicy wire name.
	Policy string
	// AgingRate parameterises the "aging" policy (points per second).
	AgingRate float64 `json:",omitempty"`
	// Model is ModelExact or ModelNoisy.
	Model string
	// Spread is the noisy model's slowdown width: slowdowns land in
	// [1, 1+Spread].
	Spread float64 `json:",omitempty"`
	// Jobs is the materialised arrival trace.
	Jobs []batch.Job
	// Chaos injects scheduler faults; committed "fail" repros use it to
	// pin that the oracles keep catching real bugs.
	Chaos batch.Chaos `json:",omitempty"`
}

// Validate reports the first structural problem with the scenario.
func (s Scenario) Validate() error {
	if s.Nodes < 1 || s.Nodes > 1024 {
		return fmt.Errorf("batchcheck: nodes %d outside [1, 1024]", s.Nodes)
	}
	if s.RanksPerNode < 1 || s.RanksPerNode > 256 {
		return fmt.Errorf("batchcheck: ranks/node %d outside [1, 256]", s.RanksPerNode)
	}
	if _, err := batch.NewPolicy(s.Policy, s.AgingRate); err != nil {
		return err
	}
	switch s.Model {
	case ModelExact:
	case ModelNoisy:
		if !(s.Spread >= 0 && s.Spread <= 10) {
			return fmt.Errorf("batchcheck: spread %v outside [0, 10]", s.Spread)
		}
	default:
		return fmt.Errorf("batchcheck: unknown model %q", s.Model)
	}
	if len(s.Jobs) == 0 || len(s.Jobs) > 4096 {
		return fmt.Errorf("batchcheck: job count %d outside [1, 4096]", len(s.Jobs))
	}
	cl := s.cluster()
	seen := make(map[int]bool, len(s.Jobs))
	for _, j := range s.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("batchcheck: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if n := cl.NodesFor(j); n > cl.Nodes {
			return fmt.Errorf("batchcheck: job %d needs %d nodes, cluster has %d", j.ID, n, cl.Nodes)
		}
	}
	return nil
}

func (s Scenario) cluster() batch.Cluster {
	return batch.Cluster{Nodes: s.Nodes, RanksPerNode: s.RanksPerNode}
}

// maxSlowdown bounds the runtime inflation the scenario's model can apply.
func (s Scenario) maxSlowdown() float64 {
	if s.Model == ModelNoisy {
		return 1 + s.Spread
	}
	return 1
}

func (s Scenario) model() batch.NodeModel {
	if s.Model == ModelNoisy {
		return batch.UniformModel{Label: ModelNoisy, Lo: 1, Hi: 1 + s.Spread}
	}
	return batch.ExactModel{}
}

// config assembles the batch.Config the scenario describes. Callers own
// the OnDecision hook.
func (s Scenario) config() batch.Config {
	p, err := batch.NewPolicy(s.Policy, s.AgingRate)
	if err != nil {
		panic(err) // Validate ran first
	}
	return batch.Config{
		Cluster: s.cluster(),
		Policy:  p,
		Model:   s.model(),
		Jobs:    s.Jobs,
		Seed:    s.Seed,
		Chaos:   s.Chaos,
	}
}

// clone deep-copies the scenario so shrink candidates never alias.
func (s Scenario) clone() Scenario {
	c := s
	c.Jobs = make([]batch.Job, len(s.Jobs))
	copy(c.Jobs, s.Jobs)
	return c
}
