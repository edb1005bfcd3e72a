// Command perfbench is hplsim's repeatable benchmark. One invocation runs one
// named workload through the repository's public entry points, checks the
// simulated outputs, and prints every metric by name with its unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload node-table|node-wide|cluster|simqd --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the run measures an untraced and a traced
// half of the same inputs and the last line carries the per-layer metrics,
// including the tracing overhead between the halves. Earlier stdout lines hold
// the host context and workload diagnostics. See README.md for why each
// workload exists and which layer each metric watches.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose round-0 digests are stored in digests.json.
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up; setup_s is the median.
const setupReps = 9

// memProbes is how many fresh processes measure max_rss_mb, each doing one
// set-up and the workload's first round. A process's peak resident set is a
// high-water mark: one rare spike in a long run sets it for good, so the
// metric is the median of short runs that do the same work. The probes run
// with a stop-the-world collector (memProbeGODEBUG): with the concurrent
// one, how far marking got before the heap grew set the peak, and one
// process of the same node-wide inputs read anywhere from 22 to 37 MB.
const memProbes = 5

// memProbeGODEBUG is the GODEBUG setting of the memory probes.
const memProbeGODEBUG = "gcstoptheworld=1"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of hplsim sees. Every workload reports all
// of them; README.md says what a "job" and a latency sample are on each.
var endToEnd = []metricDef{
	{"sim_s_per_host_s", "s/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not exercise
// reports 0.
var perLayer = []metricDef{
	{"sim.events_per_run", "count"},
	{"sim.lane_fires_per_run", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"kernel.boot_ms", "ms"},
	{"kernel.ticks_coalesced_per_run", "count"},
	{"kernel.ff_elided_frac", "frac"},
	{"sched.ctx_switches_per_run", "count"},
	{"sched.migrations_per_run", "count"},
	{"sched.balance_calls_per_run", "count"},
	{"sched.balance_pulls_per_run", "count"},
	{"sched.wake_preempts_per_run", "count"},
	{"schedstat.trace_events_per_job", "count"},
	{"experiments.calibrate_s", "s"},
	{"batch.decisions", "count"},
	{"batch.backfills", "count"},
	{"batch.mean_waiting_jobs", "jobs"},
	{"batch.us_per_decision.fcfs", "us"},
	{"batch.us_per_decision.easy", "us"},
	{"batch.us_per_decision.conservative", "us"},
	{"simq.journal_bytes_per_job", "B"},
	{"simq.records_per_job", "count"},
	{"simq.reopen_ms", "ms"},
	{"simqd.submit_ms_p50", "ms"},
	{"simqd.claim_ms_p50", "ms"},
	{"simqd.complete_ms_p50", "ms"},
	{"simqd.result_ms_p50", "ms"},
	{"simqd.queue_wait_ms_p50", "ms"},
	{"simqd.run_ms_p50", "ms"},
	{"simqd.edge_frac", "frac"},
	{"simqd.rejected", "count"},
	{"simqd.duplicates", "count"},
	{"simqd.fp_mismatches", "count"},
	{"simqd.stale_reports", "count"},
	{"host_share.sim", "frac"},
	{"host_share.kernel", "frac"},
	{"host_share.sched", "frac"},
	{"host_share.cache", "frac"},
	{"host_share.rbtree", "frac"},
	{"host_share.mpi", "frac"},
	{"host_share.schedstat", "frac"},
	{"host_share.batch", "frac"},
	{"host_share.simq", "frac"},
	{"host_share.simqd", "frac"},
	{"host_share.net", "frac"},
	{"host_share.json", "frac"},
	{"host_share.gc", "frac"},
	{"trace.overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

// phase is what one measured interval of a workload produced.
type phase struct {
	// rounds are the interval's consecutive slices of work. Rates are the
	// median over rounds, so a burst of host noise or one rare expensive
	// input moves them less than it would move a total.
	rounds []round
	simSec float64 // simulated seconds the interval covered
	jobs   float64 // completed units of work (README.md defines them)
	// latMS are the per-operation latency samples, scaled to nominal
	// speed by finish.
	latMS []float64
	// roundP99, when set, holds each round's p99 latency, and
	// latency_p99_ms is their median rather than the p99 of latMS.
	roundP99  []float64
	attempted int
	failed    int
	// digest folds the outputs of the fixed first round(s), a pure function
	// of (workload, size, seed).
	digest uint64
	// problems lists every output-check violation found while measuring.
	problems []string
	// layer holds the per-layer figures of the interval.
	layer map[string]float64
	// notes are diagnostics printed before the result line.
	notes map[string]any

	sp *speedometer
	// lats are the latency intervals finish scales into latMS; perRoundP99
	// asks finish for roundP99.
	lats        []interval
	perRoundP99 bool
}

// interval is a span of speedometer time; its latency sample is its
// scaled length over div.
type interval struct {
	t0, t1 time.Duration
	div    float64
}

func newPhase(sp *speedometer) *phase {
	return &phase{digest: fnvOffset, layer: map[string]float64{}, notes: map[string]any{}, sp: sp}
}

func (ph *phase) problem(format string, args ...any) {
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

// now reads the workload's clock less the time speed probes took. Every
// interval a phase records is on this clock.
func (ph *phase) now() time.Duration { return ph.sp.now() }

// lat records a latency sample: the interval [t0, t1] over div.
func (ph *phase) lat(t0, t1 time.Duration, div float64) {
	ph.lats = append(ph.lats, interval{t0, t1, div})
}

// round is one slice of a phase: its interval, the host seconds it took
// at nominal speed and as read, the simulated seconds it covered, the jobs
// it completed, and its latency samples, lats[lat0:lat1].
type round struct {
	t0, t1         time.Duration
	host, unscaled float64
	sim, jobs      float64
	lat0, lat1     int
}

// endRound closes the round that began when ph.now() read t0. Rounds follow
// each other, and a round's latency samples are those recorded since the
// previous one closed.
func (ph *phase) endRound(t0 time.Duration, sim, jobs float64) {
	lat0 := 0
	if n := len(ph.rounds); n > 0 {
		lat0 = ph.rounds[n-1].lat1
	}
	ph.rounds = append(ph.rounds, round{t0: t0, t1: ph.now(), sim: sim, jobs: jobs, lat0: lat0, lat1: len(ph.lats)})
}

// finish scales the phase's rounds and latency samples to nominal speed.
// It takes a last speed reading first, so the latest interval has one on
// both sides.
func (ph *phase) finish() {
	ph.sp.probe()
	ph.latMS = make([]float64, len(ph.lats))
	for i, l := range ph.lats {
		ph.latMS[i] = 1e3 * ph.sp.scaled(l.t0, l.t1) / l.div
	}
	for i := range ph.rounds {
		r := &ph.rounds[i]
		r.host = ph.sp.scaled(r.t0, r.t1)
		r.unscaled = (r.t1 - r.t0).Seconds()
		if ph.perRoundP99 {
			ph.roundP99 = append(ph.roundP99, quantile(ph.latMS[r.lat0:r.lat1], 0.99))
		}
	}
}

// rate is the median over rounds of f(round) per host second.
func (ph *phase) rate(f func(round) float64) float64 {
	rs := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		rs[i] = f(r) / r.host
	}
	return median(rs)
}

// unscaledJobRate is jobRate on the clock as read, less probe time.
func (ph *phase) unscaledJobRate() float64 {
	rs := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		rs[i] = r.jobs / r.unscaled
	}
	return median(rs)
}

func (ph *phase) p99() float64 {
	if ph.roundP99 != nil {
		return median(ph.roundP99)
	}
	return quantile(ph.latMS, 0.99)
}

func (ph *phase) jobRate() float64 { return ph.rate(func(r round) float64 { return r.jobs }) }

func (ph *phase) simRate() float64 { return ph.rate(func(r round) float64 { return r.sim }) }

// workload is one benchmark workload. run calls setup setupReps times (each
// call replaces the previous state), then measure once per measured
// interval, then verify, then, in traced runs, probe.
type workload interface {
	// now is the clock the workload's timings read: process CPU time, or
	// the wall clock for work that waits off the CPU.
	now() time.Duration
	setup(sp *speedometer, tr *tracer) error
	// measure runs rounds of the workload for at least d (and at least the
	// fixed first rounds the digest covers; with d = 0, just those).
	measure(sp *speedometer, d time.Duration, tr *tracer) (*phase, error)
	// verify re-checks outputs outside the timed interval.
	verify(ph *phase) error
	// probe adds per-layer figures that need work outside the profiled
	// interval: boot timings, journal read-back, direct re-runs.
	probe(ph *phase, tr *tracer) error
	close() error
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	size     string
	expect   string
	out      string
	// memProbe makes the run one of probeMemory's processes.
	memProbe bool
}

// errChecks marks a run whose output check failed.
var errChecks = errors.New("output check failed")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errChecks):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured host seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.size, "size", "full", "input size: full or tiny (tiny is for the benchmark's own tests)")
	fs.StringVar(&o.expect, "expect-digest", "", "expected round-0 digest (hex); default: the digests.json entry, if any")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for spans, CPU profiles and service scratch state")
	fs.BoolVar(&o.memProbe, "memory-probe", false, "set up once, run the first round and exit; max_rss_mb is the median peak memory of such runs")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.size != "full" && o.size != "tiny" {
		return o, fmt.Errorf("--size must be full or tiny, got %q", o.size)
	}
	if !(o.seconds > 0) || o.seconds > 120 {
		return o, fmt.Errorf("--seconds must be in (0, 120], got %v", o.seconds)
	}
	return o, nil
}

var workloadNames = []string{"node-table", "node-wide", "cluster", "simqd"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "node-table":
		return newNodeTable(o), nil
	case "node-wide":
		return newNodeWide(o), nil
	case "cluster":
		return newCluster(o), nil
	case "simqd":
		return newSimqd(o)
	}
	return nil, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames)
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	info := func(key string, v any) {
		b, _ := json.Marshal(map[string]any{key: v})
		fmt.Fprintln(stdout, string(b))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	if o.memProbe {
		sp := startSpeedometer(w.now)
		defer sp.halt()
		if err := w.setup(sp, nil); err != nil {
			return fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		_, err := w.measure(sp, 0, nil)
		return err
	}
	info("host", measureHost())
	// The memory probes start while this process is still small: Linux
	// counts the parent's resident set at the time of the fork towards a
	// child's peak.
	var rss float64
	if o.trace == 0 {
		if rss, err = probeMemory(o); err != nil {
			return err
		}
	}

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	sp := startSpeedometer(w.now)
	defer sp.halt()
	setups := make([]interval, setupReps)
	for i := range setups {
		t0 := sp.now()
		if err := w.setup(sp, tr); err != nil {
			return fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups[i] = interval{t0, sp.now(), 1}
	}
	sp.probe()
	setup := make([]float64, setupReps)
	for i, iv := range setups {
		setup[i] = sp.scaled(iv.t0, iv.t1)
	}

	d := time.Duration(o.seconds * float64(time.Second))
	var ph *phase
	var metrics map[string]float64
	if o.trace == 0 {
		if ph, err = w.measure(sp, d, nil); err != nil {
			return err
		}
		ph.finish()
		if err := w.verify(ph); err != nil {
			return err
		}
		metrics = map[string]float64{
			"sim_s_per_host_s": ph.simRate(),
			"jobs_per_s":       ph.jobRate(),
			"latency_p50_ms":   quantile(ph.latMS, 0.50),
			"latency_p99_ms":   ph.p99(),
			"setup_s":          median(setup),
			"max_rss_mb":       rss,
		}
		info("latency_samples", map[string]any{"n": len(ph.latMS), "beyond_p99": len(ph.latMS) / 100,
			"p99_rounds": len(ph.roundP99)})
	} else {
		// The untraced half and the traced half run the same inputs, so
		// their rates differ only by what tracing costs.
		plain, err := w.measure(sp, d/2, nil)
		if err != nil {
			return err
		}
		plain.finish()
		var pbuf bytes.Buffer
		if err := pprof.StartCPUProfile(&pbuf); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		ph, err = w.measure(sp, d/2, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		ph.finish()
		base := fmt.Sprintf("%s/%s-seed%d", o.out, o.workload, o.seed)
		if err := os.WriteFile(base+".cpu.pprof", pbuf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("writing CPU profile: %w", err)
		}
		if err := w.verify(ph); err != nil {
			return err
		}
		if err := w.probe(ph, tr); err != nil {
			return err
		}
		share, err := hostShares(base + ".cpu.pprof")
		if err != nil {
			return err
		}
		ph.problems = append(plain.problems, ph.problems...)
		if plain.digest != ph.digest {
			ph.problem("untraced and traced halves disagree on the round-0 digest: %016x vs %016x", plain.digest, ph.digest)
		}
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		metrics = map[string]float64{}
		for k, v := range ph.layer {
			metrics[k] = v
		}
		for k, v := range share {
			metrics["host_share."+k] = v
		}
		// Unscaled rates: the CPU profiler's signals starve the speed
		// probe's goroutine, so the traced half has few readings.
		metrics["trace.overhead_frac"] = plain.unscaledJobRate()/ph.unscaledJobRate() - 1
		metrics["failed_frac"] = float64(ph.failed) / float64(ph.attempted)
		if err := tr.write(base + ".spans.jsonl"); err != nil {
			return err
		}
		info("span_self_ms", tr.selfTimes())
		info("trace_files", []string{base + ".spans.jsonl", base + ".cpu.pprof"})
	}

	info("unscaled", map[string]any{"jobs_per_s": ph.unscaledJobRate()})
	probes := sp.readings()
	info("probe_ms", map[string]any{"n": len(probes), "min": 1e3 * slices.Min(probes),
		"median": 1e3 * median(probes), "max": 1e3 * slices.Max(probes)})
	for _, k := range sortedKeys(ph.notes) {
		info(k, ph.notes[k])
	}
	want, stored := expectedDigest(o)
	info("digest", map[string]any{"round0": fmt.Sprintf("%016x", ph.digest), "expected": want, "checked": stored})
	if stored && want != fmt.Sprintf("%016x", ph.digest) {
		ph.problem("round-0 digest %016x differs from the expected %s", ph.digest, want)
	}
	for _, p := range ph.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	out := map[string]map[string]any{}
	for _, m := range defs {
		v, ok := metrics[m.name]
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	final := map[string]any{
		"correct":   len(ph.problems) == 0,
		"attempted": ph.attempted,
		"failed":    ph.failed,
		"metrics":   out,
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if len(ph.problems) > 0 {
		return errChecks
	}
	return nil
}

// probeMemoryEnv is set in the environment of probeMemory's processes.
const probeMemoryEnv = "PERFBENCH_MEMORY_PROBE"

// probeMemory runs memProbes fresh processes of this program on the same
// workload, size and seed, each with --memory-probe, and returns the median
// of their peak resident set sizes in MiB.
func probeMemory(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("memory probe: %w", err)
	}
	rss := make([]float64, memProbes)
	for i := range rss {
		cmd := exec.Command(exe, "--memory-probe", "--workload", o.workload,
			"--seed", fmt.Sprint(o.seed), "--size", o.size, "--out", o.out)
		cmd.Env = append(os.Environ(), probeMemoryEnv+"=1", "GODEBUG="+memProbeGODEBUG)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("memory probe: %w: %s", err, stderr.Bytes())
		}
		rss[i] = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024 // KiB on Linux
	}
	return median(rss), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
