package simq

import (
	"sort"
	"testing"

	"hplsim/internal/binheap"
)

// splitmix64 is the tests' deterministic PRNG (math/rand is banned in
// deterministic packages; test files keep the habit so fixtures never
// drift between runs).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func alwaysLive(job, attempt int) bool { return true }

func TestQueuePopOrderMatchesReference(t *testing.T) {
	for _, rate := range []float64{0, 0.5, 4} {
		q := NewQueue(rate)
		var ref []queueEntry
		seed := uint64(42)
		for i := 0; i < 200; i++ {
			prio := int(splitmix64(&seed) % 32)
			submit := int64(splitmix64(&seed) % 1e9)
			q.Push(i, 1, prio, submit)
			ref = append(ref, queueEntry{job: i, attempt: 1, submit: submit, key: q.Key(prio, submit)})
		}
		sort.Slice(ref, func(i, j int) bool { return ahead(ref[i], ref[j]) }) // deterministic: ahead is a total order
		for i, want := range ref {
			job, attempt, ok := q.Pop(alwaysLive)
			if !ok {
				t.Fatalf("rate %v: queue empty after %d pops, want %d", rate, i, len(ref))
			}
			if job != want.job || attempt != want.attempt {
				t.Fatalf("rate %v: pop %d = job %d, want job %d", rate, i, job, want.job)
			}
		}
		if _, _, ok := q.Pop(alwaysLive); ok {
			t.Fatalf("rate %v: queue not empty after draining", rate)
		}
	}
}

func TestQueueAgingOvertake(t *testing.T) {
	// At 1 priority point per second, a prio-1 job submitted at t=0
	// outranks a prio-5 job submitted 10 s later: 1 - 0 > 5 - 10.
	q := NewQueue(1)
	q.Push(0, 1, 1, 0)
	q.Push(1, 1, 5, 10_000_000_000)
	job, _, ok := q.Pop(alwaysLive)
	if !ok || job != 0 {
		t.Fatalf("pop = job %d ok=%v, want the aged job 0", job, ok)
	}
	// With no aging the higher static priority wins.
	q = NewQueue(0)
	q.Push(0, 1, 1, 0)
	q.Push(1, 1, 5, 10_000_000_000)
	job, _, ok = q.Pop(alwaysLive)
	if !ok || job != 1 {
		t.Fatalf("pop = job %d ok=%v, want the higher-priority job 1", job, ok)
	}
}

func TestQueueTieBreaksOnJobID(t *testing.T) {
	q := NewQueue(0)
	for _, job := range []int{3, 0, 2, 1} {
		q.Push(job, 1, 7, 100)
	}
	for want := 0; want < 4; want++ {
		job, _, ok := q.Pop(alwaysLive)
		if !ok || job != want {
			t.Fatalf("pop = job %d ok=%v, want job %d (submission order)", job, ok, want)
		}
	}
}

func TestQueueLazyDeletion(t *testing.T) {
	q := NewQueue(0)
	dead := map[int]bool{1: true, 3: true}
	for i := 0; i < 5; i++ {
		q.Push(i, 1, 10-i, 0)
	}
	live := func(job, attempt int) bool { return !dead[job] }
	var got []int
	for {
		job, _, ok := q.Pop(live)
		if !ok {
			break
		}
		got = append(got, job)
	}
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

func TestQueuePeekDiscardsStaleOnly(t *testing.T) {
	q := NewQueue(0)
	q.Push(0, 1, 5, 0) // stale
	q.Push(1, 1, 3, 0) // live
	live := func(job, attempt int) bool { return job != 0 }
	job, _, ok := q.Peek(live)
	if !ok || job != 1 {
		t.Fatalf("peek = job %d ok=%v, want job 1", job, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("peek left %d entries, want 1 (stale discarded, live kept)", q.Len())
	}
	// Peek again: still there, still job 1.
	if job, _, ok = q.Peek(live); !ok || job != 1 {
		t.Fatalf("second peek = job %d ok=%v, want job 1", job, ok)
	}
	if job, _, ok = q.Pop(live); !ok || job != 1 {
		t.Fatalf("pop after peek = job %d ok=%v, want job 1", job, ok)
	}
}

// TestQueueModel drives the heap against a flat-slice reference through a
// deterministic random op mix, including retries that re-push a job at a
// higher attempt and make the old entry stale.
func TestQueueModel(t *testing.T) {
	q := NewQueue(2)
	type key struct{ job, attempt int }
	liveSet := make(map[key]bool)
	var ref []queueEntry
	live := func(job, attempt int) bool { return liveSet[key{job, attempt}] }
	refPop := func() (queueEntry, bool) {
		best := -1
		for i, e := range ref {
			if !liveSet[key{e.job, e.attempt}] {
				continue
			}
			if best < 0 || ahead(e, ref[best]) {
				best = i
			}
		}
		if best < 0 {
			return queueEntry{}, false
		}
		e := ref[best]
		ref = append(ref[:best], ref[best+1:]...)
		return e, true
	}

	seed := uint64(7)
	nextJob := 0
	attempts := make(map[int]int)
	for step := 0; step < 2000; step++ {
		switch splitmix64(&seed) % 4 {
		case 0, 1: // push a fresh job
			prio := int(splitmix64(&seed) % 16)
			submit := int64(splitmix64(&seed) % 1e10)
			attempts[nextJob] = 1
			liveSet[key{nextJob, 1}] = true
			q.Push(nextJob, 1, prio, submit)
			ref = append(ref, queueEntry{job: nextJob, attempt: 1, submit: submit, key: q.Key(prio, submit)})
			nextJob++
		case 2: // retry a random live job: stale its entry, re-push
			if nextJob == 0 {
				continue
			}
			job := int(splitmix64(&seed) % uint64(nextJob))
			a := attempts[job]
			if !liveSet[key{job, a}] {
				continue
			}
			liveSet[key{job, a}] = false
			prio := int(splitmix64(&seed) % 16)
			submit := int64(splitmix64(&seed) % 1e10)
			attempts[job] = a + 1
			liveSet[key{job, a + 1}] = true
			q.Push(job, a+1, prio, submit)
			ref = append(ref, queueEntry{job: job, attempt: a + 1, submit: submit, key: q.Key(prio, submit)})
		case 3: // pop and compare
			want, wantOK := refPop()
			job, attempt, ok := q.Pop(live)
			if ok != wantOK {
				t.Fatalf("step %d: pop ok=%v, reference ok=%v", step, ok, wantOK)
			}
			if ok && (job != want.job || attempt != want.attempt) {
				t.Fatalf("step %d: pop = job %d attempt %d, reference job %d attempt %d",
					step, job, attempt, want.job, want.attempt)
			}
			if ok {
				liveSet[key{job, attempt}] = false
			}
		}
	}
}

func TestCoolHeapOrder(t *testing.T) {
	c := binheap.New(coolAhead)
	seed := uint64(3)
	for i := 0; i < 100; i++ {
		c.Push(coolEntry{nb: int64(splitmix64(&seed) % 1000), job: i, attempt: 1})
	}
	prev := coolEntry{nb: -1}
	for i := 0; i < 100; i++ {
		e, ok := c.Pop()
		if !ok {
			t.Fatalf("cool heap empty after %d pops", i)
		}
		if i > 0 && coolAhead(e, prev) {
			t.Fatalf("cool pop %d out of order: nb %d after nb %d", i, e.nb, prev.nb)
		}
		prev = e
	}
}

func TestLeaseHeapOrder(t *testing.T) {
	h := binheap.New(leaseAhead)
	seed := uint64(5)
	for i := 0; i < 100; i++ {
		h.Push(leaseEntry{deadline: int64(splitmix64(&seed) % 1000), job: i, attempt: 1})
	}
	prev := leaseEntry{deadline: -1}
	for i := 0; i < 100; i++ {
		e, ok := h.Pop()
		if !ok {
			t.Fatalf("lease heap empty after %d pops", i)
		}
		if i > 0 && leaseAhead(e, prev) {
			t.Fatalf("lease pop %d out of order: deadline %d after %d", i, e.deadline, prev.deadline)
		}
		prev = e
	}
}
