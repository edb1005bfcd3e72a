//go:build invariants

package binheap

import (
	"testing"

	"hplsim/internal/invariant"
)

// TestCorruptHeapPanics proves the -tags invariants order audit runs: a
// heap whose root was swapped below its children must panic on the next
// mutation.
func TestCorruptHeapPanics(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	for i := 0; i < 8; i++ {
		h.Push(i)
	}
	items := h.Items()
	items[0], items[len(items)-1] = items[len(items)-1], items[0]
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted heap passed the invariant check")
		}
		if _, ok := r.(invariant.Violation); !ok {
			t.Fatalf("panic was not an invariant.Violation: %v", r)
		}
	}()
	h.Push(99)
}
