package batchcheck

import (
	"fmt"
	"reflect"

	"hplsim/internal/batch"
	"hplsim/internal/schedcheck/prop"
	"hplsim/internal/sim"
)

// Oracle names, stable across versions: committed repros reference them.
const (
	OracleDeterminism  = "determinism"
	OracleConservation = "conservation"
	OracleEASYHead     = "easy-head"
	OracleFCFSOrder    = "fcfs-order"
	OracleCompletion   = "completion"
)

// easyApplicable gates the head-reservation oracle: the EASY guarantee
// ("the reserved head never starts later than its reservation") only holds
// when walltime estimates are upper bounds on actual runtimes. Generated
// scenarios construct estimates that way; a hand-edited repro with
// under-estimates simply drops the oracle instead of false-firing.
func (s Scenario) easyApplicable() bool {
	if s.Policy != "easy" {
		return false
	}
	bound := s.maxSlowdown()
	for _, j := range s.Jobs {
		if float64(j.Est) < float64(j.Work)*bound {
			return false
		}
	}
	return true
}

// Harness is the batch-layer property check for the prop core.
var Harness = prop.Harness[Scenario]{
	Kind:       "batch",
	Generate:   Generate,
	Check:      Check,
	Candidates: candidates,
	Describe: func(s Scenario) string {
		return fmt.Sprintf("%d jobs, %d nodes x %d ranks, %s/%s",
			len(s.Jobs), s.Nodes, s.RanksPerNode, s.Policy, s.Model)
	},
	Size: func(s Scenario) string { return fmt.Sprintf("%d jobs", len(s.Jobs)) },
}

// Check runs the scenario's cluster simulation and applies every
// applicable oracle, returning the first failure or nil. It must be a
// deterministic pure function of the scenario: Replay leans on that.
func Check(s Scenario) *prop.Failure {
	if err := s.Validate(); err != nil {
		return &prop.Failure{Oracle: prop.OracleInvalid, Detail: err.Error()}
	}

	// The EASY reservation ledger: the tightest reservation ever granted
	// to each job while it sat blocked at the head of the queue.
	reservation := make(map[int]sim.Time)
	resOrder := []int{} // IDs in first-reservation order, for determinism
	cfg := s.config()
	cfg.OnDecision = func(v batch.View, started []int) {
		id, at, ok := batch.EASYReservation(v)
		if !ok {
			return
		}
		prev, seen := reservation[id]
		if !seen {
			resOrder = append(resOrder, id)
			reservation[id] = at
		} else if at < prev {
			reservation[id] = at
		}
	}
	res := batch.Simulate(cfg)

	// Determinism: a second run of the identical config must agree bit for
	// bit, fingerprint first (it digests the dispatch order).
	cfg2 := s.config()
	res2 := batch.Simulate(cfg2)
	if res.Fingerprint != res2.Fingerprint {
		return &prop.Failure{Oracle: OracleDeterminism,
			Detail: fmt.Sprintf("dispatch fingerprints differ across identical runs: %016x vs %016x", res.Fingerprint, res2.Fingerprint)}
	}
	if !reflect.DeepEqual(res, res2) {
		return &prop.Failure{Oracle: OracleDeterminism, Detail: "identical runs produced different results beyond the fingerprint"}
	}

	if f := checkConservation(s, res); f != nil {
		return f
	}
	if s.Policy == "fcfs" {
		if f := checkFCFSOrder(res); f != nil {
			return f
		}
	}
	if s.easyApplicable() {
		if f := checkEASYHead(res, reservation, resOrder); f != nil {
			return f
		}
	}
	if s.Chaos == (batch.Chaos{}) {
		if f := checkCompletion(res); f != nil {
			return f
		}
	}
	return nil
}

// checkConservation sweeps the dispatched intervals and fails if the
// summed allocation ever exceeds cluster capacity. Completions release
// before coincident starts, matching the dispatcher's event order.
func checkConservation(s Scenario, res batch.Result) *prop.Failure {
	type edge struct {
		at    sim.Time
		delta int
		id    int
	}
	var edges []edge
	for _, st := range res.Jobs {
		if !st.Started {
			continue
		}
		if st.End <= st.Start {
			return &prop.Failure{Oracle: OracleConservation,
				Detail: fmt.Sprintf("job %d occupies an empty interval [%v, %v)", st.ID, st.Start, st.End)}
		}
		edges = append(edges, edge{st.Start, st.Nodes, st.ID}, edge{st.End, -st.Nodes, st.ID})
	}
	// Insertion sort by (time, releases first): deterministic and small.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[j], edges[j-1]
			if a.at > b.at || (a.at == b.at && a.delta >= b.delta) {
				break
			}
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	used := 0
	for _, e := range edges {
		used += e.delta
		if used > s.Nodes {
			return &prop.Failure{Oracle: OracleConservation,
				Detail: fmt.Sprintf("at %v the cluster holds %d allocated nodes of %d (job %d pushed it over)",
					e.at, used, s.Nodes, e.id)}
		}
	}
	return nil
}

// checkFCFSOrder demands starts in strict arrival order under the FCFS
// policy: an unstarted or overtaken earlier arrival is a violation.
// res.Jobs is already in (Arrival, ID) order.
func checkFCFSOrder(res batch.Result) *prop.Failure {
	for i := 1; i < len(res.Jobs); i++ {
		prev, cur := res.Jobs[i-1], res.Jobs[i]
		if cur.Started && !prev.Started {
			return &prop.Failure{Oracle: OracleFCFSOrder,
				Detail: fmt.Sprintf("job %d started at %v while earlier job %d never started", cur.ID, cur.Start, prev.ID)}
		}
		if cur.Started && prev.Started && cur.Start < prev.Start {
			return &prop.Failure{Oracle: OracleFCFSOrder,
				Detail: fmt.Sprintf("job %d (arrived %v) started at %v, before earlier job %d (arrived %v, started %v)",
					cur.ID, cur.Arrival, cur.Start, prev.ID, prev.Arrival, prev.Start)}
		}
	}
	return nil
}

// checkEASYHead holds EASY to its one guarantee: a job that was granted a
// reservation while blocked at the head starts no later than the tightest
// reservation it was ever granted (estimates are upper bounds here, so
// actual releases only come early and can only improve the bound).
func checkEASYHead(res batch.Result, reservation map[int]sim.Time, resOrder []int) *prop.Failure {
	stats := make(map[int]batch.JobStat, len(res.Jobs))
	for _, st := range res.Jobs {
		stats[st.ID] = st
	}
	for _, id := range resOrder {
		bound := reservation[id]
		st, ok := stats[id]
		if !ok {
			return &prop.Failure{Oracle: OracleEASYHead, Detail: fmt.Sprintf("reserved job %d missing from results", id)}
		}
		if !st.Started {
			return &prop.Failure{Oracle: OracleEASYHead,
				Detail: fmt.Sprintf("job %d held a reservation for %v but never started", id, bound)}
		}
		if st.Start > bound {
			return &prop.Failure{Oracle: OracleEASYHead,
				Detail: fmt.Sprintf("backfill delayed the reserved head: job %d started %v, reservation was %v",
					id, st.Start, bound)}
		}
	}
	return nil
}

// checkCompletion demands every job ran to completion in a chaos-free
// scenario; a stranded job means the scheduler wedged.
func checkCompletion(res batch.Result) *prop.Failure {
	for _, st := range res.Jobs {
		if !st.Started {
			return &prop.Failure{Oracle: OracleCompletion,
				Detail: fmt.Sprintf("job %d (arrived %v) never started", st.ID, st.Arrival)}
		}
	}
	if res.Dispatched != len(res.Jobs) {
		return &prop.Failure{Oracle: OracleCompletion,
			Detail: fmt.Sprintf("dispatched %d of %d jobs", res.Dispatched, len(res.Jobs))}
	}
	return nil
}
