package schedstat

import (
	"bufio"
	"io"

	"hplsim/internal/kernel"
	"hplsim/internal/sim"
	"hplsim/internal/task"
)

// Event constructors shared by the streaming writer, the in-memory
// collector, and the accounting layer. Each mirrors one kernel tracer hook.

// NewSwitchEvent records a context switch on cpu.
func NewSwitchEvent(now sim.Time, cpu int, prev, next *task.Task) Event {
	return Event{Ev: KindSwitch, T: int64(now), CPU: cpu,
		Prev: prev.Name, PID: prev.ID, PState: prev.State.String(),
		Next: next.Name, NID: next.ID}
}

// NewWakeEvent records a wakeup of t onto cpu.
func NewWakeEvent(now sim.Time, t *task.Task, cpu int) Event {
	return Event{Ev: KindWake, T: int64(now), Task: t.Name, TID: t.ID, CPU: cpu}
}

// NewMigrateEvent records a CPU change of t with its cause.
func NewMigrateEvent(now sim.Time, t *task.Task, from, to int, kind kernel.MigrateKind) Event {
	return Event{Ev: KindMigrate, T: int64(now), Task: t.Name, TID: t.ID,
		From: from, To: to, Kind: kind.String()}
}

// NewForkEvent records the first enqueue of a freshly created task.
func NewForkEvent(now sim.Time, t *task.Task, cpu int) Event {
	return Event{Ev: KindFork, T: int64(now), Task: t.Name, TID: t.ID,
		CPU: cpu, Policy: t.Policy.String()}
}

// NewExitEvent records a task leaving the system.
func NewExitEvent(now sim.Time, t *task.Task) Event {
	return Event{Ev: KindExit, T: int64(now), Task: t.Name, TID: t.ID}
}

// NewMarkEvent records a workload-defined point event.
func NewMarkEvent(now sim.Time, t *task.Task, label string) Event {
	return Event{Ev: KindMark, T: int64(now), Task: t.Name, TID: t.ID, Label: label}
}

// Writer streams canonical JSONL trace records to an io.Writer as the
// simulation runs. It implements kernel.Tracer, holds one reusable encode
// buffer plus a bufio stage, and never retains events — memory stays
// constant however long the run.
// Errors from the underlying writer are sticky and reported by Flush/Err.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
	err error
}

// NewWriter returns a streaming trace writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

func (w *Writer) emit(e Event) {
	if w.err != nil {
		return
	}
	w.buf = e.AppendJSONL(w.buf[:0])
	if _, err := w.bw.Write(w.buf); err != nil {
		w.err = err
	}
}

// Switch implements kernel.Tracer.
func (w *Writer) Switch(now sim.Time, cpu int, prev, next *task.Task) {
	w.emit(NewSwitchEvent(now, cpu, prev, next))
}

// Migrate implements kernel.Tracer.
func (w *Writer) Migrate(now sim.Time, t *task.Task, from, to int, kind kernel.MigrateKind) {
	w.emit(NewMigrateEvent(now, t, from, to, kind))
}

// Wake implements kernel.Tracer.
func (w *Writer) Wake(now sim.Time, t *task.Task, cpu int) {
	w.emit(NewWakeEvent(now, t, cpu))
}

// Mark implements kernel.Tracer.
func (w *Writer) Mark(now sim.Time, t *task.Task, label string) {
	w.emit(NewMarkEvent(now, t, label))
}

// Fork implements kernel.Tracer.
func (w *Writer) Fork(now sim.Time, t *task.Task, cpu int) {
	w.emit(NewForkEvent(now, t, cpu))
}

// Exit implements kernel.Tracer.
func (w *Writer) Exit(now sim.Time, t *task.Task) {
	w.emit(NewExitEvent(now, t))
}

// Flush drains the buffered output and returns the first error seen.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Err reports the first underlying write error, if any.
func (w *Writer) Err() error { return w.err }

// Collector gathers the event stream in memory, for in-process conversion
// (Perfetto export, Gantt charts, golden generation, diffing). It
// implements kernel.Tracer like Writer.
type Collector struct {
	Events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Switch implements kernel.Tracer.
func (c *Collector) Switch(now sim.Time, cpu int, prev, next *task.Task) {
	c.Events = append(c.Events, NewSwitchEvent(now, cpu, prev, next))
}

// Migrate implements kernel.Tracer.
func (c *Collector) Migrate(now sim.Time, t *task.Task, from, to int, kind kernel.MigrateKind) {
	c.Events = append(c.Events, NewMigrateEvent(now, t, from, to, kind))
}

// Wake implements kernel.Tracer.
func (c *Collector) Wake(now sim.Time, t *task.Task, cpu int) {
	c.Events = append(c.Events, NewWakeEvent(now, t, cpu))
}

// Mark implements kernel.Tracer.
func (c *Collector) Mark(now sim.Time, t *task.Task, label string) {
	c.Events = append(c.Events, NewMarkEvent(now, t, label))
}

// Fork implements kernel.Tracer.
func (c *Collector) Fork(now sim.Time, t *task.Task, cpu int) {
	c.Events = append(c.Events, NewForkEvent(now, t, cpu))
}

// Exit implements kernel.Tracer.
func (c *Collector) Exit(now sim.Time, t *task.Task) {
	c.Events = append(c.Events, NewExitEvent(now, t))
}

// Window returns the events with lo <= T < hi, preserving order.
func (c *Collector) Window(lo, hi sim.Time) []Event {
	var out []Event
	for _, e := range c.Events {
		if e.T >= int64(lo) && e.T < int64(hi) {
			out = append(out, e)
		}
	}
	return out
}
