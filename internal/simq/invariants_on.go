//go:build invariants

package simq

import "hplsim/internal/invariant"

// checkState verifies the dispatcher bookkeeping identities after every
// mutation:
//
//   - per-state counts equal a recount over the job table;
//   - per-client in-flight books equal a recount of pending+leased jobs;
//   - the ids slice is sorted, duplicate-free, and covers the job table;
//   - every ready entry's key matches the job it names (live entries
//     only — stale entries are awaiting lazy discard);
//   - every pending job has exactly one live entry across ready+cooling,
//     and every leased job exactly one live lease entry;
//   - seq/stamp sanity: nextID matches the table size.
func (s *State) checkState() {
	var counts [5]int
	inflight := make(map[string]int)
	for _, id := range s.ids {
		j := s.jobs[id]
		if j == nil {
			invariant.Violated("simq: ids slice names unknown job %d", id)
		}
		counts[j.state]++
		if j.state == Pending || j.state == Leased {
			inflight[j.client]++
		}
	}
	if len(s.ids) != len(s.jobs) {
		invariant.Violated("simq: ids slice has %d entries, job table %d", len(s.ids), len(s.jobs))
	}
	for i := 1; i < len(s.ids); i++ {
		if s.ids[i-1] >= s.ids[i] {
			invariant.Violated("simq: ids slice out of order at %d: %d then %d", i, s.ids[i-1], s.ids[i])
		}
	}
	for st, n := range counts {
		if s.counts[st] != n {
			invariant.Violated("simq: %v count is %d, recount says %d", JobState(st), s.counts[st], n)
		}
	}
	for _, client := range s.sortedClients() {
		if s.inflight[client] != inflight[client] {
			invariant.Violated("simq: client %q in-flight books say %d, recount says %d",
				client, s.inflight[client], inflight[client])
		}
	}
	if len(s.jobs) > 0 && s.nextID != s.ids[len(s.ids)-1]+1 {
		invariant.Violated("simq: nextID %d does not follow last job %d", s.nextID, s.ids[len(s.ids)-1])
	}

	// Exactly one live entry per pending job, one live lease per leased
	// job; live ready keys agree with the job table.
	liveEntry := make(map[int]int)
	for _, e := range s.ready.heap.Items() {
		j := s.jobs[e.job]
		if j == nil || j.state != Pending || j.attempt+1 != e.attempt {
			continue // stale, awaiting lazy discard
		}
		liveEntry[e.job]++
		if want := s.ready.Key(j.prio, j.submit); e.key != want {
			invariant.Violated("simq: ready entry for job %d has key %v, want %v from (prio %d, submit %d)",
				e.job, e.key, want, j.prio, j.submit)
		}
		if e.submit != j.submit {
			invariant.Violated("simq: ready entry for job %d anchors at %d, job submitted at %d",
				e.job, e.submit, j.submit)
		}
	}
	for _, e := range s.cooling.Items() {
		j := s.jobs[e.job]
		if j == nil || j.state != Pending || j.attempt+1 != e.attempt {
			continue
		}
		liveEntry[e.job]++
	}
	liveLease := make(map[int]int)
	for _, e := range s.leases.Items() {
		j := s.jobs[e.job]
		if j == nil || j.state != Leased || j.attempt != e.attempt {
			continue
		}
		liveLease[e.job]++
		if j.deadline != e.deadline {
			invariant.Violated("simq: lease entry for job %d carries deadline %d, job says %d",
				e.job, e.deadline, j.deadline)
		}
	}
	for _, id := range s.ids {
		j := s.jobs[id]
		switch j.state {
		case Pending:
			if liveEntry[id] != 1 {
				invariant.Violated("simq: pending job %d has %d live queue entries, want exactly 1", id, liveEntry[id])
			}
		case Leased:
			if liveLease[id] != 1 {
				invariant.Violated("simq: leased job %d has %d live lease entries, want exactly 1", id, liveLease[id])
			}
		}
	}
}
