package schedstat

import (
	"fmt"
	"strings"

	"hplsim/internal/sim"
)

// span is a contiguous interval during which a task occupied a CPU.
type span struct {
	cpu        int
	task       string
	start, end int64
}

// openSpan is the task occupying one CPU since its last switch.
type openSpan struct {
	task  string
	tid   int
	start int64
	live  bool // a switch has shown which task runs here
}

// runSpans rebuilds the per-CPU run spans of an event stream: the model
// both WritePerfetto and Gantt draw. open is indexed by CPU.
type runSpans struct {
	open []openSpan
}

// walk replays evs in order. Each switch closes the span open on its CPU
// and hands it to emit; every other event goes to other, if set, while open
// still describes the instant before it. Spans still open after the last
// event close at that event's time. Idle (swapper*) spans and spans of no
// positive length are never emitted.
func (r *runSpans) walk(evs []Event, emit func(span), other func(Event)) {
	var end int64
	for _, e := range evs {
		if e.T > end {
			end = e.T
		}
		if e.Ev != KindSwitch {
			if other != nil {
				other(e)
			}
			continue
		}
		for len(r.open) <= e.CPU {
			r.open = append(r.open, openSpan{})
		}
		r.close(e.CPU, e.T, emit)
		r.open[e.CPU] = openSpan{task: e.Next, tid: e.NID, start: e.T, live: true}
	}
	for cpu := range r.open {
		r.close(cpu, end, emit)
	}
}

func (r *runSpans) close(cpu int, end int64, emit func(span)) {
	o := r.open[cpu]
	if !o.live || strings.HasPrefix(o.task, "swapper") || end <= o.start {
		return
	}
	emit(span{cpu: cpu, task: o.task, start: o.start, end: end})
}

// cpuOf reports the CPU currently running task tid, or 0 when no switch
// has shown it running.
func (r *runSpans) cpuOf(tid int) int {
	for cpu, o := range r.open {
		if o.live && o.tid == tid {
			return cpu
		}
	}
	return 0
}

// Gantt renders the run spans of evs between lo and hi as one text row per
// CPU that ever switched, with cols character cells. Each cell shows the
// glyph of the task that occupied most of the cell ('.' for idle).
func Gantt(evs []Event, lo, hi sim.Time, cols int) string {
	if hi <= lo || cols <= 0 {
		return ""
	}
	var rs runSpans
	var byCPU [][]span // indexed by CPU, in close order
	rs.walk(evs, func(s span) {
		for len(byCPU) <= s.cpu {
			byCPU = append(byCPU, nil)
		}
		byCPU[s.cpu] = append(byCPU[s.cpu], s)
	}, nil)

	cell := float64(hi-lo) / float64(cols)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (1 cell = %v)\n", lo, hi,
		sim.Duration(cell))
	row := make([]byte, cols)
	occupancy := make([]float64, cols)
	for cpu, o := range rs.open {
		if !o.live {
			continue
		}
		for i := range row {
			row[i] = '.'
			occupancy[i] = 0
		}
		if cpu < len(byCPU) {
			for _, s := range byCPU[cpu] {
				start, end := sim.Time(s.start), sim.Time(s.end)
				if end <= lo || start >= hi {
					continue
				}
				start, end = max(start, lo), min(end, hi)
				c0 := int(float64(start-lo) / cell)
				c1 := int(float64(end-lo) / cell)
				for c := c0; c <= c1 && c < cols; c++ {
					cellLo := lo.Add(sim.Duration(float64(c) * cell))
					cellHi := lo.Add(sim.Duration(float64(c+1) * cell))
					if ov := overlap(start, end, cellLo, cellHi); ov > occupancy[c] {
						occupancy[c] = ov
						row[c] = glyph(s.task)
					}
				}
			}
		}
		fmt.Fprintf(&b, "cpu%-2d |%s|\n", cpu, row)
	}
	return b.String()
}

func overlap(a0, a1, b0, b1 sim.Time) float64 {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return float64(hi - lo)
}

// glyph picks a display character for a task name: the trailing digit of
// rank names ("rank3" -> '3'), otherwise the first letter.
func glyph(name string) byte {
	if name == "" {
		return '?'
	}
	last := name[len(name)-1]
	if last >= '0' && last <= '9' {
		return last
	}
	return name[0]
}
