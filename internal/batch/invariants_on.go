//go:build invariants

package batch

import "hplsim/internal/invariant"

// checkQueue verifies that every aging-heap key agrees with the entry it
// was derived from; the heap audits its own order.
func (q *AgingQueue) checkQueue() {
	for _, e := range q.heap.Items() {
		want := float64(e.prio) - q.rate*e.arrival.Seconds()
		if e.key != want {
			invariant.Violated("batch: queue entry %d key %v, want %v from (prio %d, arrival %v)",
				e.id, e.key, want, e.prio, e.arrival)
		}
	}
}

// checkState verifies the dispatcher's capacity accounting identity —
// free == total - sum(running allocations) — and that the waiting list is
// in (Arrival, ID) order with sane allocations. The identity holds even
// under chaos overcommit (free simply goes negative), so fault-injected
// runs still pass the structural check while the conservation oracle
// flags them at the trace level.
func (s *simState) checkState() {
	used := 0
	for _, r := range s.run {
		if r.nodes < 1 {
			invariant.Violated("batch: running job %d holds %d nodes", r.id, r.nodes)
		}
		used += r.nodes
	}
	if s.free != s.total-used {
		invariant.Violated("batch: capacity books broken: free %d, want %d (total %d - running %d)",
			s.free, s.total-used, s.total, used)
	}
	for i := 1; i < len(s.waiting); i++ {
		a, b := s.waiting[i-1].Job, s.waiting[i].Job
		if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.ID >= b.ID) {
			invariant.Violated("batch: waiting queue out of arrival order at %d: (%v, job %d) before (%v, job %d)",
				i, a.Arrival, a.ID, b.Arrival, b.ID)
		}
	}
}

// checkProfile verifies the conservative-backfill capacity timeline:
// breakpoints strictly increase, the segment slices agree in length, and
// no segment plans more free nodes than the cluster has (releases can only
// return capacity that allocations took out, even under overcommit).
func (p *profile) checkProfile() {
	if len(p.times) == 0 || len(p.times) != len(p.free) {
		invariant.Violated("batch: profile shape broken: %d times, %d segments", len(p.times), len(p.free))
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] <= p.times[i-1] {
			invariant.Violated("batch: profile breakpoints not increasing: %v then %v", p.times[i-1], p.times[i])
		}
	}
	for i, f := range p.free {
		if f > p.total {
			invariant.Violated("batch: profile plans %d free nodes at %v, cluster has %d", f, p.times[i], p.total)
		}
	}
}
