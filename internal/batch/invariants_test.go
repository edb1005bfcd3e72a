//go:build invariants

package batch

import (
	"testing"

	"hplsim/internal/invariant"
	"hplsim/internal/sim"
)

// expectViolation runs fn and demands it panics with an
// invariant.Violation; any other outcome fails the test.
func expectViolation(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted state passed the invariant check")
		}
		if _, ok := r.(invariant.Violation); !ok {
			t.Fatalf("panic was not an invariant.Violation: %v", r)
		}
	}()
	fn()
}

func TestCorruptQueueHeapPanics(t *testing.T) {
	q := NewAgingQueue(1)
	for i := 0; i < 8; i++ {
		q.Push(Job{ID: i, Priority: i, Arrival: sim.Time(i) * sim.Time(sim.Second)})
	}
	// Swap the root below one of its children: heap order broken.
	items := q.heap.Items()
	items[0], items[len(items)-1] = items[len(items)-1], items[0]
	expectViolation(t, func() {
		q.Push(Job{ID: 99, Priority: 1, Arrival: sim.Time(sim.Second)})
	})
}

func TestCorruptQueueKeyPanics(t *testing.T) {
	q := NewAgingQueue(1)
	q.Push(Job{ID: 0, Priority: 3, Arrival: 0})
	q.Push(Job{ID: 1, Priority: 1, Arrival: 0})
	// A key that no longer matches its (prio, arrival) derivation.
	q.heap.Items()[0].key += 42
	expectViolation(t, func() { q.Push(Job{ID: 2, Priority: 2, Arrival: 0}) })
}

func TestCorruptSimStateFreePanics(t *testing.T) {
	st := &simState{total: 8, free: 8}
	st.run = append(st.run, running{id: 0, nodes: 3, end: sim.Time(10 * sim.Second)})
	// Books say 8 free, but a running job holds 3 of 8: identity broken.
	expectViolation(t, func() { st.checkState() })
}

func TestCorruptSimStateOrderPanics(t *testing.T) {
	st := &simState{total: 4, free: 4}
	st.waiting = []Waiting{
		{Job: Job{ID: 1, Arrival: sim.Time(5 * sim.Second)}, Nodes: 1},
		{Job: Job{ID: 0, Arrival: sim.Time(2 * sim.Second)}, Nodes: 1},
	}
	expectViolation(t, func() { st.checkState() })
}

func TestCorruptProfilePanics(t *testing.T) {
	p := newProfile(0, 2, 4, []Release{{At: sim.Time(10 * sim.Second), Nodes: 2}})
	// Breakpoints out of order.
	p.times[1] = p.times[0] - 1
	expectViolation(t, func() { p.checkProfile() })
}

func TestCorruptProfileOverCapacityPanics(t *testing.T) {
	p := newProfile(0, 2, 4, []Release{{At: sim.Time(10 * sim.Second), Nodes: 2}})
	// A segment planning more free nodes than the cluster has.
	p.free[1] = 9
	expectViolation(t, func() { p.checkProfile() })
}

// TestInvariantsLiveInSimulate proves the checks actually run on the real
// code path under the tag: a full simulation passes them at every event.
func TestInvariantsLiveInSimulate(t *testing.T) {
	jobs, err := GenerateTrace(testTraceConfig(TraceBursty), sim.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{FCFS{}, EASY{}, Conservative{}, PriorityAging{Rate: 0.1}} {
		Simulate(Config{
			Cluster: Cluster{Nodes: 8, RanksPerNode: 4},
			Policy:  p, Model: UniformModel{Lo: 1, Hi: 1.3}, Jobs: jobs, Seed: 3,
		})
	}
	// Chaos runs must also pass the structural checks: overcommit breaks
	// the conservation *property*, not the accounting *identity*.
	Simulate(Config{
		Cluster: Cluster{Nodes: 8, RanksPerNode: 4},
		Policy:  EASY{}, Model: ExactModel{}, Jobs: jobs, Seed: 3,
		Chaos: Chaos{Overcommit: true, StarveHead: true},
	})
}
