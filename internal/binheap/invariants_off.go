//go:build !invariants

package binheap

// checkHeap is a no-op in normal builds; see invariants_on.go.
func (h *Heap[T]) checkHeap() {}
