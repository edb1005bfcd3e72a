package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public entry point it calls. Spans of one service job share Job.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since() float64 { return float64(time.Since(t.t0)) / 1e3 }

// begin opens a span and returns its ID (0 on a nil tracer). job is the
// service job the span belongs to, or -1.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// count is how many spans have been opened so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spansFrom returns a copy of the spans opened after the first n.
func (t *tracer) spansFrom(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

// tag records the service job a span belongs to, once a reply names it.
func (t *tracer) tag(id, job int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Job = job
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes sums each span name's self time in ms: its duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += (s.End - s.Start) / 1e3
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= (s.End - s.Start) / 1e3
		}
	}
	return self
}

// shareLayers are the host_share.* names. A sample counts towards "gc" when
// any frame of its stack is the collector; otherwise towards the layer of
// the package holding its leaf frame, if any.
var shareLayers = []string{"sim", "kernel", "sched", "cache", "rbtree", "mpi", "schedstat",
	"batch", "simq", "simqd", "net", "json", "gc"}

func layerOf(pkg string) string {
	const in = "hplsim/internal/"
	switch {
	case pkg == in+"sched", strings.HasPrefix(pkg, in+"sched/"):
		return "sched"
	case pkg == in+"nas", pkg == in+"noise":
		return "mpi"
	case strings.HasPrefix(pkg, in):
		return strings.TrimPrefix(pkg, in)
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "encoding/json":
		return "json"
	}
	return ""
}

// funcPackage extracts the import path from a symbol name such as
// "hplsim/internal/sched/cfs.(*CFS).pick".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func isGC(name string) bool {
	return strings.HasPrefix(name, "runtime.gc") || name == "runtime.bgsweep" ||
		name == "runtime.bgscavenge" || name == "runtime.markroot"
}

// hostShares aggregates the samples of the CPU profile at path into the
// share of host time each layer spent in its own code. It reads the sample
// stacks from `go tool pprof -traces`: the Go toolchain that builds the
// benchmark ships pprof, so the benchmark parses no profile format itself.
func hostShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	share := map[string]float64{}
	for _, l := range shareLayers {
		share[l] = 0
	}
	var total float64
	// Each sample is a separator line, then its value and leaf frame, then
	// one line per caller.
	blocks := strings.Split(string(out), "\n-----------+")
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:]
		if len(lines) == 0 {
			continue
		}
		value, leaf, ok := strings.Cut(strings.TrimSpace(lines[0]), " ")
		if !ok {
			continue
		}
		d, err := time.ParseDuration(value)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof -traces %s: sample value %q: %w", path, value, err)
		}
		w := d.Seconds()
		total += w
		layer := layerOf(funcPackage(frame(leaf)))
		for _, l := range append([]string{leaf}, lines[1:]...) {
			if isGC(frame(l)) {
				layer = "gc"
			}
		}
		if _, ok := share[layer]; ok {
			share[layer] += w
		}
	}
	if total > 0 {
		for k := range share {
			share[k] /= total
		}
	}
	return share, nil
}

// frame is the function name on one stack line of `pprof -traces`.
func frame(line string) string {
	return strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
}
