package binheap

import (
	"sort"
	"testing"
)

// splitmix64 is the test's deterministic PRNG.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type item struct{ key, id int }

// TestHeapModel drives the heap and a sorted-slice reference with the same
// random push/pop/peek stream. Keys come from a small range so duplicates
// are common. Under the total (key, id) order every pop must match the
// reference exactly; under the key-only order, which ties on duplicates,
// the popped keys must still come out in reference order.
func TestHeapModel(t *testing.T) {
	orders := []struct {
		name  string
		less  func(a, b item) bool
		total bool
	}{
		{"min by key then id", func(a, b item) bool {
			if a.key != b.key {
				return a.key < b.key
			}
			return a.id < b.id
		}, true},
		{"max by key then id", func(a, b item) bool {
			if a.key != b.key {
				return a.key > b.key
			}
			return a.id < b.id
		}, true},
		{"min by key only", func(a, b item) bool { return a.key < b.key }, false},
	}
	for _, o := range orders {
		for seed := uint64(1); seed <= 10; seed++ {
			h := New(o.less)
			var ref []item
			rng := seed
			nextID := 0
			for op := 0; op < 1000; op++ {
				if h.Len() != len(ref) {
					t.Fatalf("%s seed %d op %d: Len %d, reference %d", o.name, seed, op, h.Len(), len(ref))
				}
				switch r := splitmix64(&rng) % 8; {
				case r < 4: // push
					x := item{key: int(splitmix64(&rng) % 16), id: nextID}
					nextID++
					h.Push(x)
					i := sort.Search(len(ref), func(i int) bool { return o.less(x, ref[i]) })
					ref = append(ref, item{})
					copy(ref[i+1:], ref[i:])
					ref[i] = x
				case r < 7: // pop
					got, ok := h.Pop()
					if ok != (len(ref) > 0) {
						t.Fatalf("%s seed %d op %d: Pop ok=%v with %d reference items", o.name, seed, op, ok, len(ref))
					}
					if !ok {
						continue
					}
					want := ref[0]
					ref = ref[1:]
					if got.key != want.key || (o.total && got != want) {
						t.Fatalf("%s seed %d op %d: Pop = %+v, reference %+v", o.name, seed, op, got, want)
					}
				default: // peek
					got, ok := h.Peek()
					if ok != (len(ref) > 0) {
						t.Fatalf("%s seed %d op %d: Peek ok=%v with %d reference items", o.name, seed, op, ok, len(ref))
					}
					if ok && (got.key != ref[0].key || (o.total && got != ref[0])) {
						t.Fatalf("%s seed %d op %d: Peek = %+v, reference %+v", o.name, seed, op, got, ref[0])
					}
				}
			}
		}
	}
}

func TestHeapEmpty(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on an empty heap reported ok")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on an empty heap reported ok")
	}
	h.Push(3)
	if x, ok := h.Pop(); !ok || x != 3 {
		t.Fatalf("Pop = %d, %v; want 3, true", x, ok)
	}
	if h.Len() != 0 {
		t.Fatalf("Len after draining = %d", h.Len())
	}
}
