package simq

import "hplsim/internal/binheap"

// Queue orders ready jobs by aged priority, reusing the internal/batch
// AgingQueue insight: when every job ages at the same rate, the comparison
// reduces to the static key Prio - Rate*Submit(seconds), so the queue is
// an ordinary max-heap (internal/binheap) and never re-sifts as time
// advances. Ties break on
// smaller job ID — submission order — making the pop order total and
// deterministic.
//
// Deletion is lazy: the state machine cancels or requeues jobs by bumping
// their attempt, and Pop skips entries whose (job, attempt) the caller no
// longer recognises. An entry is live while the validity callback accepts
// it; stale entries cost one comparison on their way out.
type Queue struct {
	rate float64
	heap binheap.Heap[queueEntry]
}

type queueEntry struct {
	job     int
	attempt int
	submit  int64 // submission stamp, ns (aging anchor)
	key     float64
}

// NewQueue builds an empty queue with the given aging rate (priority
// points per second of wait; 0 = static priority).
func NewQueue(rate float64) *Queue {
	return &Queue{rate: rate, heap: binheap.New(ahead)}
}

// Rate reports the aging rate.
func (q *Queue) Rate() float64 { return q.rate }

// Len reports the number of entries, live and stale alike.
func (q *Queue) Len() int { return q.heap.Len() }

// Key is the time-independent ordering key for a job submitted at submit
// nanoseconds with the given priority.
func (q *Queue) Key(prio int, submit int64) float64 {
	return float64(prio) - q.rate*(float64(submit)/1e9)
}

// ahead reports whether a must pop before b.
func ahead(a, b queueEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.job < b.job
}

// Push queues attempt of job. The submit stamp is the job's original
// submission time, so a retried job keeps the age it has earned.
func (q *Queue) Push(job, attempt, prio int, submit int64) {
	q.heap.Push(queueEntry{
		job:     job,
		attempt: attempt,
		submit:  submit,
		key:     q.Key(prio, submit),
	})
}

// Pop removes and returns the highest-priority live entry, discarding
// stale entries (those live rejects) along the way. ok is false when no
// live entry remains.
func (q *Queue) Pop(live func(job, attempt int) bool) (job, attempt int, ok bool) {
	for {
		top, ok := q.heap.Pop()
		if !ok {
			return 0, 0, false
		}
		if live(top.job, top.attempt) {
			return top.job, top.attempt, true
		}
	}
}

// Peek reports the highest-priority live entry without removing it,
// discarding stale entries it passes over.
func (q *Queue) Peek(live func(job, attempt int) bool) (job, attempt int, ok bool) {
	for {
		top, ok := q.heap.Peek()
		if !ok {
			return 0, 0, false
		}
		if live(top.job, top.attempt) {
			return top.job, top.attempt, true
		}
		q.heap.Pop()
	}
}

// coolEntry is a cooling (backoff-delayed) retry entry. The cooling heap
// orders them by not-before stamp with job as the deterministic tiebreak;
// entries move to the ready Queue when the observed time passes their
// stamp, and like Queue, deletion is lazy.
type coolEntry struct {
	nb      int64
	job     int
	attempt int
	submit  int64
}

func coolAhead(a, b coolEntry) bool {
	if a.nb != b.nb {
		return a.nb < b.nb
	}
	return a.job < b.job
}

// leaseEntry is a live lease. The lease heap orders them by deadline so
// expiry sweeps are O(log n) per expiry instead of a scan over every job.
// Same lazy-deletion scheme: completing or failing a lease leaves its
// entry behind to be skipped.
type leaseEntry struct {
	deadline int64
	job      int
	attempt  int
}

func leaseAhead(a, b leaseEntry) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.job < b.job
}
