package sim

import (
	"reflect"
	"testing"
)

// TestLaneHeapMatchesNaiveScan pins the lane heap against its reference:
// the NaiveLanes linear scan. Two engines run the same deterministic lane
// schedule — irregular re-arms, re-aims of other armed lanes, disarms, and
// ties on a coarse grid — and the (time, id) firing sequences must be
// identical, ties broken to the lowest lane id in both.
func TestLaneHeapMatchesNaiveScan(t *testing.T) {
	const lanes = 12
	horizon := Time(200 * Millisecond)
	run := func(naive bool) []int64 {
		e := NewEngine()
		e.NaiveLanes = naive
		var fired []int64
		// A small LCG drives re-arming so the schedule is irregular but
		// identical across both engines.
		state := uint64(0x9e3779b97f4a7c15)
		next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
		for i := 0; i < lanes; i++ {
			id := i
			id = e.NewLane(func() {
				now := e.Now()
				fired = append(fired, int64(now)<<8|int64(id))
				if now >= horizon {
					return
				}
				step := Duration(next()%5) * Millisecond
				e.ArmLane(id, now.Add(step+Millisecond))
				// Also move or drop some other lane, so sifts and removals
				// happen away from the heap root.
				switch r := next(); r % 8 {
				case 0:
					e.DisarmLane(int(r>>8) % lanes)
				case 1, 2:
					e.ArmLane(int(r>>8)%lanes, now.Add(Duration(r>>16%4)*Millisecond))
				}
			})
		}
		for i := 0; i < lanes; i++ {
			e.ArmLane(i, Time(Duration(i%3)*Millisecond)) // ties on the grid
		}
		e.Run(Time(250 * Millisecond))
		return fired
	}
	heap, naive := run(false), run(true)
	if len(heap) < 100 {
		t.Fatalf("schedule fired only %d lanes; test is near vacuous", len(heap))
	}
	if !reflect.DeepEqual(heap, naive) {
		t.Fatalf("lane firing sequences diverge:\n heap  %v\n naive %v", heap, naive)
	}
}
