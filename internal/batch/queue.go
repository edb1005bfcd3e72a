package batch

import (
	"hplsim/internal/binheap"
	"hplsim/internal/invariant"
	"hplsim/internal/sim"
)

// AgingQueue orders jobs by aged priority: a job's effective priority at
// time t is Priority + Rate*(t - Arrival) in priority points per second of
// wait. Because every job ages at the same rate, the relative order of any
// two jobs never changes with t — the comparison reduces to the static key
// Priority - Rate*Arrival — so the queue is an ordinary max-heap on that
// key and needs no re-sifting as time advances. Ties break on earlier
// arrival, then smaller ID, making the pop order total and deterministic.
//
// The heap is the shared internal/binheap; AgingQueue doubles as a
// model-based-testing target: the property suite drives it against a
// sorted-slice reference.
type AgingQueue struct {
	// rate is the aging rate in priority points per second.
	rate float64
	heap binheap.Heap[queueEntry]
}

type queueEntry struct {
	id      int
	prio    int
	arrival sim.Time
	key     float64
}

// NewAgingQueue builds an empty queue with the given aging rate. A zero
// rate degrades to a pure static-priority queue; a huge rate approaches
// FCFS order.
func NewAgingQueue(rate float64) *AgingQueue {
	return &AgingQueue{rate: rate, heap: binheap.New(ahead)}
}

// Rate reports the aging rate.
func (q *AgingQueue) Rate() float64 { return q.rate }

// Len reports the number of queued jobs.
func (q *AgingQueue) Len() int { return q.heap.Len() }

// EffectiveKey is the time-independent ordering key the queue uses for a
// job: Priority - Rate*Arrival(seconds). At any instant t every job's aged
// priority exceeds its key by the same Rate*t, so larger key == higher
// aged priority, always.
func (q *AgingQueue) EffectiveKey(j Job) float64 {
	return float64(j.Priority) - q.rate*j.Arrival.Seconds()
}

// ahead reports whether a must pop before b.
func ahead(a, b queueEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.id < b.id
}

// Push queues a job.
func (q *AgingQueue) Push(j Job) {
	q.heap.Push(queueEntry{
		id:      j.ID,
		prio:    j.Priority,
		arrival: j.Arrival,
		key:     q.EffectiveKey(j),
	})
	if invariant.Enabled {
		q.checkQueue()
	}
}

// Pop removes and returns the ID of the highest aged-priority job. It
// panics on an empty queue.
func (q *AgingQueue) Pop() int {
	top, ok := q.heap.Pop()
	if !ok {
		panic("batch: Pop on empty AgingQueue")
	}
	if invariant.Enabled {
		q.checkQueue()
	}
	return top.id
}
