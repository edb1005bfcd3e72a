//go:build invariants

package simq

import (
	"testing"

	"hplsim/internal/invariant"
)

// expectViolation runs fn and demands it panics with an
// invariant.Violation; any other outcome fails the test. These tests are
// what prove the -tags invariants audits actually execute — a silently
// disabled check would pass corrupted state.
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

func TestCorruptReadyHeapPanics(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 8; i++ {
		q.Push(i, 1, i, int64(i))
	}
	// Swap the root below one of its children: heap order broken.
	items := q.heap.Items()
	items[0], items[len(items)-1] = items[len(items)-1], items[0]
	expectViolation(t, func() { q.Push(99, 1, 1, 99) })
}

func TestCorruptStateCountsPanics(t *testing.T) {
	s := NewState(Config{})
	mustApply(t, s, Record{Seq: 1, Op: OpSubmit, T: 10, Job: 0, Client: "c", Name: "j", Payload: "{}"})
	// Books claim one extra done job.
	s.counts[Done]++
	expectViolation(t, func() {
		s.Apply(Record{Seq: 2, Op: OpSubmit, T: 20, Job: 1, Client: "c", Name: "k", Payload: "{}"})
	})
}

func TestCorruptStateInflightPanics(t *testing.T) {
	s := NewState(Config{})
	mustApply(t, s, Record{Seq: 1, Op: OpSubmit, T: 10, Job: 0, Client: "c", Name: "j", Payload: "{}"})
	s.inflight["c"] = 7
	expectViolation(t, func() { s.PeekClaim(20) })
}

func TestCorruptLeaseDeadlinePanics(t *testing.T) {
	s := NewState(Config{})
	mustApply(t, s, Record{Seq: 1, Op: OpSubmit, T: 10, Job: 0, Client: "c", Name: "j", Payload: "{}"})
	mustApply(t, s, Record{Seq: 2, Op: OpClaim, T: 20, Job: 0, Worker: "w", Attempt: 1, Deadline: 1000})
	// The job's deadline drifts from its lease-heap entry.
	s.jobs[0].deadline = 999
	expectViolation(t, func() { s.NextExpiry(30) })
}

func TestCorruptReadyKeyPanics(t *testing.T) {
	s := NewState(Config{AgingRate: 1})
	mustApply(t, s, Record{Seq: 1, Op: OpSubmit, T: 10, Job: 0, Client: "c", Name: "j", Payload: "{}"})
	s.ready.heap.Items()[0].key += 42
	expectViolation(t, func() { s.PeekClaim(20) })
}
