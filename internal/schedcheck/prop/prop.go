// Package prop is the property-check core shared by the node-kernel
// harness (internal/schedcheck) and the batch-cluster harness
// (internal/batch/batchcheck): oracle failures, the greedy shrink loop,
// JSON repro files and their replay, and the seeded corpus driver. A layer
// supplies only its scenario type, generator, oracles and shrink steps,
// bundled as a Harness.
package prop

import "fmt"

// OracleInvalid is the oracle a Check reports for a scenario that fails
// its own Validate.
const OracleInvalid = "invalid"

// DefaultShrinkBudget bounds the number of Check calls a shrink may spend.
const DefaultShrinkBudget = 200

// Failure describes one oracle violation on a scenario.
type Failure struct {
	Oracle string
	Detail string
}

func (f *Failure) Error() string { return fmt.Sprintf("[%s] %s", f.Oracle, f.Detail) }

// Scenario is what a layer's scenario type provides to the core.
type Scenario interface {
	// Validate reports the first structural problem with the scenario.
	Validate() error
}

// Harness is one layer's property check.
type Harness[S Scenario] struct {
	// Kind qualifies "scenarios" and "seed" in corpus output ("batch
	// scenarios"); empty for the node layer.
	Kind string
	// Generate materialises the scenario of a seed; it must be a pure
	// function of the seed.
	Generate func(seed uint64) S
	// Check runs every applicable oracle and returns the first failure,
	// or nil. It must be a deterministic pure function of the scenario:
	// Replay leans on that.
	Check func(S) *Failure
	// Candidates enumerates one-step reductions of a scenario, biggest
	// wins first. Every candidate must be a fresh deep copy; invalid ones
	// are skipped.
	Candidates func(S) []S
	// Describe summarises a scenario on one line for verbose corpus
	// output.
	Describe func(S) string
	// Size renders the size the shrinker minimises ("3 tasks").
	Size func(S) string
}

// Shrink greedily reduces a failing scenario while it keeps failing (any
// oracle): it takes the first valid candidate that still fails and
// restarts from it. It returns the smallest failing scenario found and its
// failure; a passing input comes back unchanged with a nil failure. budget
// caps the Check calls (<= 0 means DefaultShrinkBudget).
func (h Harness[S]) Shrink(s S, budget int) (S, *Failure) {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	fail := h.Check(s)
	if fail == nil {
		return s, nil
	}
	checks := 1
	cur := s
	for checks < budget {
		improved := false
		for _, cand := range h.Candidates(cur) {
			if cand.Validate() != nil {
				continue
			}
			if checks >= budget {
				break
			}
			f := h.Check(cand)
			checks++
			if f != nil {
				cur, fail = cand, f
				improved = true
				break // restart from the reduced scenario
			}
		}
		if !improved {
			break
		}
	}
	return cur, fail
}
