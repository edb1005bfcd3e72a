// Package binheap is the one binary heap outside the event engine: a
// slice-backed heap ordered by a caller-supplied total order. It stands in
// for container/heap, which the deterministic core bans, and it serves the
// batch aging queue and the simq ready, cooling and lease queues. Ordering
// keys, tie-breaks and lazy deletion stay with the callers.
//
// The sift steps are fixed: equal elements under a non-total less still
// pop in one deterministic order, so a run's pop sequence is a pure
// function of its push/pop sequence.
package binheap

import "hplsim/internal/invariant"

// Heap is a binary heap whose root is the element that pops first.
type Heap[T any] struct {
	less  func(a, b T) bool
	items []T
}

// New builds an empty heap. less(a, b) reports whether a must pop before
// b; it must be a strict order, and a total one for the pop order to be
// independent of the push order.
func New[T any](less func(a, b T) bool) Heap[T] {
	return Heap[T]{less: less}
}

// Len reports the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Items is the backing slice in heap order, for callers' audits. Callers
// must not reorder it.
func (h *Heap[T]) Items() []T { return h.items }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
	if invariant.Enabled {
		h.checkHeap()
	}
}

// Peek reports the element that pops next; ok is false on an empty heap.
func (h *Heap[T]) Peek() (x T, ok bool) {
	if len(h.items) == 0 {
		return x, false
	}
	return h.items[0], true
}

// Pop removes and returns the element that pops first; ok is false on an
// empty heap.
func (h *Heap[T]) Pop() (x T, ok bool) {
	if len(h.items) == 0 {
		return x, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // drop the reference the vacated slot still holds
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.less(h.items[l], h.items[best]) {
			best = l
		}
		if r < last && h.less(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
	if invariant.Enabled {
		h.checkHeap()
	}
	return top, true
}
