//go:build invariants

package binheap

import "hplsim/internal/invariant"

// checkHeap verifies heap order: no element pops before its parent.
func (h *Heap[T]) checkHeap() {
	for i := 1; i < len(h.items); i++ {
		if parent := (i - 1) / 2; h.less(h.items[i], h.items[parent]) {
			invariant.Violated("binheap: heap order broken: element %d (%v) pops before its parent %d (%v)",
				i, h.items[i], parent, h.items[parent])
		}
	}
}
