package schedstat

import (
	"io"
	"testing"

	"hplsim/internal/sim"
	"hplsim/internal/task"
)

// BenchmarkAppendJSONL encodes one switch event into a reused buffer; the
// writer hot path must stay at 0 allocs/op.
func BenchmarkAppendJSONL(b *testing.B) {
	e := NewSwitchEvent(sim.Time(123456789), 3,
		&task.Task{ID: 17, Name: "rank3", State: task.Runnable},
		&task.Task{ID: 12, Name: "ksoftirqd"})
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.AppendJSONL(buf[:0])
	}
}

// BenchmarkWriterSwitch is the same event through the buffered Writer.
func BenchmarkWriterSwitch(b *testing.B) {
	w := NewWriter(io.Discard)
	prev := &task.Task{ID: 17, Name: "rank3", State: task.Runnable}
	next := &task.Task{ID: 12, Name: "ksoftirqd"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Switch(sim.Time(i), 3, prev, next)
	}
}
