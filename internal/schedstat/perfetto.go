package schedstat

import (
	"encoding/json"
	"fmt"
	"io"
)

// pfArgs is the args payload of a metadata record.
type pfArgs struct {
	Name string `json:"name"`
}

// pfEvent is one Chrome trace_event record. Field order is fixed by the
// struct, so the export is deterministic.
type pfEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"` // microseconds
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	S    string  `json:"s,omitempty"`
	Args *pfArgs `json:"args,omitempty"`
}

// pfTrace is the top-level trace_event JSON object.
type pfTrace struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

func usec(tns int64) float64 { return float64(tns) / 1e3 }

// WritePerfetto converts an event stream to Chrome/Perfetto trace_event
// JSON: one thread per CPU under pid 0, "X" complete events for run spans
// (idle swapper spans are left blank), and "i" instant events for wakes,
// migrations, forks, exits, and marks. The output loads directly in
// https://ui.perfetto.dev or chrome://tracing.
func WritePerfetto(w io.Writer, evs []Event) error {
	var out []pfEvent
	var rs runSpans
	ncpu := 0 // one thread per CPU any event names
	seen := func(cpu int) { ncpu = max(ncpu, cpu+1) }
	instant := func(name string, t int64, tid int) pfEvent {
		return pfEvent{Name: name, Ph: "i", TS: usec(t), PID: 0, TID: tid, S: "t"}
	}
	rs.walk(evs, func(s span) {
		out = append(out, pfEvent{
			Name: s.task, Ph: "X", TS: usec(s.start), Dur: usec(s.end) - usec(s.start),
			PID: 0, TID: s.cpu,
		})
	}, func(e Event) {
		// Per-task instants without a CPU of their own go on the CPU
		// currently running the task.
		switch e.Ev {
		case KindWake:
			seen(e.CPU)
			out = append(out, instant(fmt.Sprintf("wake %s", e.Task), e.T, e.CPU))
		case KindMigrate:
			seen(e.To)
			out = append(out, instant(
				fmt.Sprintf("migrate %s cpu%d->cpu%d (%s)", e.Task, e.From, e.To, e.Kind), e.T, e.To))
		case KindFork:
			seen(e.CPU)
			out = append(out, instant(fmt.Sprintf("fork %s", e.Task), e.T, e.CPU))
		case KindExit:
			out = append(out, instant(fmt.Sprintf("exit %s", e.Task), e.T, rs.cpuOf(e.TID)))
		case KindMark:
			out = append(out, instant(fmt.Sprintf("mark %s %s", e.Task, e.Label), e.T, rs.cpuOf(e.TID)))
		}
	})
	ncpu = max(ncpu, len(rs.open))

	meta := []pfEvent{{
		Name: "process_name", Ph: "M", PID: 0, TID: 0, Args: &pfArgs{Name: "hplsim"},
	}}
	for cpu := range ncpu {
		meta = append(meta, pfEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: cpu,
			Args: &pfArgs{Name: fmt.Sprintf("cpu%d", cpu)},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(pfTrace{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"})
}
