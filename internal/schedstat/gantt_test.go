package schedstat

import (
	"reflect"
	"strings"
	"testing"

	"hplsim/internal/sim"
	"hplsim/internal/task"
)

// sw builds a switch event on cpu at ms milliseconds.
func sw(ms float64, cpu int, prev, next string) Event {
	return NewSwitchEvent(sim.Time(ms*float64(sim.Millisecond)), cpu,
		&task.Task{Name: prev}, &task.Task{Name: next})
}

func spansOf(evs []Event) []span {
	var out []span
	var rs runSpans
	rs.walk(evs, func(s span) { out = append(out, s) }, nil)
	return out
}

const msec = int64(sim.Millisecond)

func TestSpansRecorded(t *testing.T) {
	got := spansOf([]Event{
		sw(0, 0, "swapper/0", "a"),
		sw(10, 0, "a", "b"),
		sw(15, 0, "b", "a"),
		NewWakeEvent(sim.Time(20*sim.Millisecond), &task.Task{Name: "c"}, 1),
	})
	// a's second span is still open after the last event and closes at it.
	want := []span{
		{cpu: 0, task: "a", start: 0, end: 10 * msec},
		{cpu: 0, task: "b", start: 10 * msec, end: 15 * msec},
		{cpu: 0, task: "a", start: 15 * msec, end: 20 * msec},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %+v, want %+v", got, want)
	}
}

func TestSwitchOpensNewSpanPerCPU(t *testing.T) {
	got := spansOf([]Event{
		sw(0, 0, "swapper/0", "a"),
		sw(0, 1, "swapper/1", "b"),
		sw(1, 1, "b", "swapper/1"),
	})
	want := []span{
		{cpu: 1, task: "b", start: 0, end: 1 * msec},
		{cpu: 0, task: "a", start: 0, end: 1 * msec},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %+v, want %+v (idle spans skipped)", got, want)
	}
}

func TestCloseDropsZeroLengthSpans(t *testing.T) {
	// The last event switches b in: its span opens at the closing instant
	// and must not be emitted as a zero-length phantom.
	got := spansOf([]Event{
		sw(0, 0, "swapper/0", "a"),
		sw(10, 0, "a", "b"),
	})
	want := []span{{cpu: 0, task: "a", start: 0, end: 10 * msec}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %+v, want only a's real span", got)
	}
}

func TestGanttRendering(t *testing.T) {
	out := Gantt([]Event{
		sw(0, 2, "swapper/2", "rank1"),
		sw(50, 2, "rank1", "swapper/2"),
	}, 0, sim.Time(100*sim.Millisecond), 10)
	// First half busy with rank1 ('1'), second half idle ('.'); CPUs that
	// never switched get no row.
	want := "timeline 0.000000s .. 0.100000s (1 cell = 10ms)\n" +
		"cpu2  |11111.....|\n"
	if out != want {
		t.Fatalf("Gantt =\n%s\nwant\n%s", out, want)
	}
	if strings.Contains(out, "cpu0") {
		t.Fatal("row for a CPU without switches")
	}
}

func TestGanttEmptyWindow(t *testing.T) {
	evs := []Event{sw(0, 0, "swapper/0", "a")}
	if Gantt(evs, 10, 10, 5) != "" || Gantt(evs, 0, 10, 0) != "" {
		t.Fatal("degenerate windows should render empty")
	}
}

func TestGlyph(t *testing.T) {
	cases := map[string]byte{
		"rank3":     '3',
		"daemon":    'd',
		"kswapd":    'k',
		"storm-12":  '2',
		"swapper/0": '0', // filtered before rendering, but glyph is defined
	}
	for name, want := range cases {
		if got := glyph(name); got != want {
			t.Fatalf("glyph(%q) = %c, want %c", name, got, want)
		}
	}
	if glyph("") != '?' {
		t.Fatal("empty glyph")
	}
}
