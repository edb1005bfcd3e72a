// Command benchjson runs the engine and replication-harness benchmarks and
// emits a machine-readable trajectory file, so successive commits can be
// compared without scraping `go test -bench` text:
//
//	benchjson [-o BENCH_parallel.json] [-reps 32] [-bench ep -class A]
//
// The report carries the engine hot-path microbenchmarks (ns/op, allocs/op
// — the free-list contract is allocs/op == 0) and the RunMany wall-clock at
// 1, 2, 4, and GOMAXPROCS workers with the speedup over sequential.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"hplsim/internal/batch"
	"hplsim/internal/experiments"
	"hplsim/internal/kernel"
	"hplsim/internal/nas"
	"hplsim/internal/schedstat"
	"hplsim/internal/sim"
	"hplsim/internal/task"
	"hplsim/internal/topo"
	"hplsim/internal/walltime"
)

// EngineBench is one microbenchmark reading.
type EngineBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// RunManyBench is the replication harness at one worker count.
type RunManyBench struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup_vs_sequential"`
}

// Report is the whole trajectory record.
type Report struct {
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Engine     []EngineBench  `json:"engine"`
	Profile    string         `json:"profile"`
	Scheme     string         `json:"scheme"`
	Reps       int            `json:"reps"`
	RunMany    []RunManyBench `json:"run_many"`
}

// FastForwardBench is one row of the std-vs-fast-forward comparison: the
// replication harness run sequentially in one tick mode. The engine-traffic
// counters are from a single representative replication (they are
// deterministic per seed); the wall clock covers all reps.
type FastForwardBench struct {
	Scheme           string  `json:"scheme"`
	HZ               int     `json:"hz"`
	FastForward      bool    `json:"fast_forward"`
	Seconds          float64 `json:"seconds"`
	EventsDispatched uint64  `json:"events_dispatched"`
	LaneFires        uint64  `json:"lane_fires"`
	TicksCoalesced   uint64  `json:"ticks_coalesced"`
	EventsPerVirtSec float64 `json:"events_per_virtual_sec"`
	Speedup          float64 `json:"speedup_vs_std"`
}

// FFReport is the BENCH_fastforward.json record: the same replication
// benchmark with ticks stepped versus fast-forwarded, across schemes and
// tick rates. Host context rides along because the absolute seconds (and
// the flat run_many curve in the sibling report) are meaningless without
// knowing how many cores backed them.
type FFReport struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	GoVersion  string             `json:"go_version"`
	Profile    string             `json:"profile"`
	Ranks      int                `json:"ranks"`
	Reps       int                `json:"reps"`
	Rows       []FastForwardBench `json:"rows"`
}

// ScaleBench is one (topology, implementation) cell of the wide-node
// scaling study: the same HPL replication workload on a growing machine,
// with the kernel's optimized hot paths versus its naive reference scans
// (kernel.Config.Naive). Both runs replay identical seeds and produce
// identical traces; the ratio is pure host cost.
type ScaleBench struct {
	Topo             string  `json:"topo"`
	CPUs             int     `json:"cpus"`
	Naive            bool    `json:"naive"`
	Seconds          float64 `json:"seconds"`
	EventsDispatched uint64  `json:"events_dispatched"`
	LaneFires        uint64  `json:"lane_fires"`
	VirtualSec       float64 `json:"virtual_sec"`
	EventsPerSec     float64 `json:"events_per_host_sec"`
	NsPerSimMs       float64 `json:"ns_per_simulated_ms"`
	SpeedupVsNaive   float64 `json:"speedup_vs_naive"`
}

// ScaleReport is the BENCH_scale.json record: events/sec and ns per
// simulated millisecond across node widths, naive versus optimized.
type ScaleReport struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	GoVersion  string       `json:"go_version"`
	Profile    string       `json:"profile"`
	Scheme     string       `json:"scheme"`
	Reps       int          `json:"reps"`
	Rows       []ScaleBench `json:"rows"`
}

// BatchBench is one cluster-size row of the batch-layer throughput
// study: one EASY-backfill simulation of a Poisson trace on the exact
// node model, reported as dispatched jobs per host second. The decision
// loop re-plans the whole queue on every completion and arrival, so this
// is the scheduler's own cost, not the simulated workload's.
type BatchBench struct {
	Nodes      int     `json:"nodes"`
	Jobs       int     `json:"jobs"`
	Dispatched int     `json:"dispatched"`
	Decisions  int     `json:"decisions"`
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_host_sec"`
}

// BatchReport is the BENCH_batch.json record.
type BatchReport struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	GoVersion  string       `json:"go_version"`
	Policy     string       `json:"policy"`
	Model      string       `json:"model"`
	Rows       []BatchBench `json:"rows"`
}

// SchedstatBench is one tracer-mode row of the observability-overhead
// comparison: the same sequential replication workload with no tracer,
// with the streaming JSONL writer, and with the accounting ledger.
type SchedstatBench struct {
	Mode        string  `json:"mode"`
	Seconds     float64 `json:"seconds"`
	OverheadPct float64 `json:"overhead_pct_vs_none"`
}

// SchedstatReport is the BENCH_schedstat.json record: the writer hot-path
// microbenchmarks (the encode buffer is reused, so allocs/op must be 0)
// plus the end-to-end cost of leaving a tracer attached.
type SchedstatReport struct {
	GoMaxProcs int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	GoVersion  string           `json:"go_version"`
	Profile    string           `json:"profile"`
	Scheme     string           `json:"scheme"`
	Reps       int              `json:"reps"`
	Writer     []EngineBench    `json:"writer"`
	Modes      []SchedstatBench `json:"modes"`
}

func engineBench(name string, fn func(b *testing.B)) EngineBench {
	r := testing.Benchmark(fn)
	return EngineBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func main() {
	out := flag.String("o", "BENCH_parallel.json", "output file ('' to skip, '-' for stdout)")
	ffOut := flag.String("ff-out", "BENCH_fastforward.json",
		"fast-forward comparison output file ('' to skip, '-' for stdout)")
	statOut := flag.String("stat-out", "BENCH_schedstat.json",
		"schedstat tracer-overhead output file ('' to skip, '-' for stdout)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json",
		"wide-node scaling output file ('' to skip, '-' for stdout)")
	batchOut := flag.String("batch-out", "BENCH_batch.json",
		"batch-layer throughput output file ('' to skip, '-' for stdout)")
	batchJobs := flag.Int("batch-jobs", 2000, "jobs per batch throughput measurement")
	scaleTopos := flag.String("scale-topos", "2x2x2,2x16x2,2x64x2,4x128x2",
		"comma-separated topologies for the scaling study")
	scaleReps := flag.Int("scale-reps", 16, "replications per scaling-study cell")
	reps := flag.Int("reps", 32, "replications per worker-count measurement")
	bench := flag.String("bench", "ep", "NAS benchmark for the RunMany measurement")
	class := flag.String("class", "A", "NAS class: A or B")
	flag.Parse()

	if *class == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -class must be A or B")
		os.Exit(2)
	}
	prof, err := nas.Get(*bench, (*class)[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rep := Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Profile:    prof.Name(),
		Scheme:     experiments.Std.String(),
		Reps:       *reps,
	}

	// Engine hot paths, with allocation accounting: the steady-state
	// After/Step cycle and the deep-queue churn pattern.
	rep.Engine = append(rep.Engine,
		engineBench("ScheduleDispatch", func(b *testing.B) {
			e := sim.NewEngine()
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(sim.Millisecond, fn)
				e.Step()
			}
		}),
		engineBench("HeapChurn1024", func(b *testing.B) {
			e := sim.NewEngine()
			fn := func() {}
			for i := 0; i < 1024; i++ {
				e.After(sim.Duration(i)*sim.Microsecond, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(1100*sim.Microsecond, fn)
				e.Step()
			}
		}),
	)

	// The replication harness at growing widths. Identical seeds at every
	// width, so the work is identical and the ratio is pure scheduling.
	opt := experiments.Options{Profile: prof, Scheme: experiments.Std, Seed: 1}
	widths := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		widths = append(widths, g)
	}
	var seqSec float64
	for _, w := range widths {
		sw := walltime.Start()
		experiments.RunManyOpt(opt, *reps, w)
		sec := sw.Seconds()
		if w == 1 {
			seqSec = sec
		}
		speedup := seqSec / sec
		if math.IsNaN(speedup) || math.IsInf(speedup, 0) {
			speedup = 0
		}
		rep.RunMany = append(rep.RunMany, RunManyBench{Workers: w, Seconds: sec, Speedup: speedup})
		fmt.Fprintf(os.Stderr, "run_many workers=%-2d %7.3fs  speedup=%.2fx\n", w, sec, speedup)
	}

	if *out != "" {
		writeJSON(*out, rep)
	}

	if *ffOut != "" {
		runFastForward(*ffOut, prof, *reps)
	}
	if *statOut != "" {
		runSchedstat(*statOut, prof, *reps)
	}
	if *scaleOut != "" {
		runScale(*scaleOut, prof, *scaleTopos, *scaleReps)
	}
	if *batchOut != "" {
		runBatch(*batchOut, *batchJobs)
	}
}

func runBatch(out string, jobs int) {
	batchRep := BatchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Policy:     "easy",
		Model:      "exact",
	}
	// EASY backfill over a long Poisson trace at the two cluster widths the
	// two-level study targets. The exact node model removes kernel-run cost
	// from the measurement: what is left is queue management, reservation
	// planning, and the backfill scan per decision point.
	for _, nodes := range []int{64, 256} {
		tc := batch.TraceConfig{
			Kind:             batch.TracePoisson,
			Jobs:             jobs,
			MeanInterarrival: 45 * sim.Second,
			MaxRanks:         nodes * 4,
			MeanWork:         300 * sim.Second,
			WorkSpread:       4,
			EstFactor:        1.5,
			EstNoise:         0.3,
			PrioLevels:       1,
		}
		trace, err := batch.GenerateTrace(tc, sim.NewRNG(1).Split(0xbeef))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg := batch.Config{
			Cluster: batch.Cluster{Nodes: nodes, RanksPerNode: 8},
			Policy:  batch.EASY{},
			Model:   batch.ExactModel{},
			Jobs:    trace,
			Seed:    1,
		}
		sw := walltime.Start()
		res := batch.Simulate(cfg)
		sec := sw.Seconds()
		row := BatchBench{
			Nodes:      nodes,
			Jobs:       jobs,
			Dispatched: res.Dispatched,
			Decisions:  res.Decisions,
			Seconds:    sec,
		}
		if sec > 0 {
			row.JobsPerSec = float64(res.Dispatched) / sec
		}
		batchRep.Rows = append(batchRep.Rows, row)
		fmt.Fprintf(os.Stderr, "batch nodes=%-4d jobs=%-6d %7.3fs  jobs/sec=%.0f\n",
			nodes, jobs, sec, row.JobsPerSec)
	}
	writeJSON(out, batchRep)
}

func runScale(out string, prof nas.Profile, topos string, reps int) {
	scaleRep := ScaleReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Profile:    prof.Name(),
		Scheme:     experiments.HPL.String(),
		Reps:       reps,
	}
	// The same HPL replication workload on a growing node, naive scans
	// versus the word-scan hot paths, sequentially so the ratio is clean.
	// Fast-forward is on in both rows — it is the shipping configuration,
	// and the naive switch also covers its per-CPU catch-up loop. The event
	// counters come from a single representative run (deterministic per
	// seed); the wall clock covers all reps.
	for _, spec := range strings.Split(topos, ",") {
		machine, err := topo.Parse(strings.TrimSpace(spec))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var naiveSec float64
		for _, naive := range []bool{true, false} {
			o := experiments.Options{
				Profile: prof, Scheme: experiments.HPL, Seed: 1,
				Topo: machine, FastForward: true, Naive: naive,
			}
			sw := walltime.Start()
			experiments.RunManyOpt(o, reps, 1)
			sec := sw.Seconds()
			if naive {
				naiveSec = sec
			}
			speedup := naiveSec / sec
			if math.IsNaN(speedup) || math.IsInf(speedup, 0) {
				speedup = 0
			}
			probe := experiments.Run(o)
			virt := probe.VirtualSec * float64(reps)
			row := ScaleBench{
				Topo:             strings.TrimSpace(spec),
				CPUs:             machine.NumCPUs(),
				Naive:            naive,
				Seconds:          sec,
				EventsDispatched: probe.EventsDispatched,
				LaneFires:        probe.LaneFires,
				VirtualSec:       probe.VirtualSec,
				SpeedupVsNaive:   speedup,
			}
			if sec > 0 {
				row.EventsPerSec = float64(probe.EventsDispatched+probe.LaneFires) * float64(reps) / sec
			}
			if virt > 0 {
				row.NsPerSimMs = sec * 1e9 / (virt * 1e3)
			}
			scaleRep.Rows = append(scaleRep.Rows, row)
			fmt.Fprintf(os.Stderr, "scale topo=%-8s cpus=%-5d naive=%-5v %7.3fs  ns/sim-ms=%-9.0f speedup=%.2fx\n",
				row.Topo, row.CPUs, naive, sec, row.NsPerSimMs, speedup)
		}
	}
	writeJSON(out, scaleRep)
}

func runFastForward(out string, prof nas.Profile, reps int) {
	ffRep := FFReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Profile:    prof.Name(),
		Ranks:      prof.Ranks,
		Reps:       reps,
	}
	// Std-versus-fast-forward on the sequential replication harness, per
	// scheme and tick rate: the saving is proportional to the tick share
	// of the event stream, so it grows with HZ and with the HPL scheme's
	// quieter queues (fewer heap events per virtual second). Both modes
	// replay identical seeds and, by the schedcheck equivalence oracle,
	// identical traces — the ratio is pure dispatch cost.
	for _, scheme := range []experiments.Scheme{experiments.Std, experiments.HPL} {
		for _, hz := range []int{250, 1000} {
			var stdSec float64
			for _, ff := range []bool{false, true} {
				o := experiments.Options{Profile: prof, Scheme: scheme, Seed: 1, HZ: hz, FastForward: ff}
				sw := walltime.Start()
				experiments.RunManyOpt(o, reps, 1)
				sec := sw.Seconds()
				if !ff {
					stdSec = sec
				}
				speedup := stdSec / sec
				if math.IsNaN(speedup) || math.IsInf(speedup, 0) {
					speedup = 0
				}
				probe := experiments.Run(o)
				ffRep.Rows = append(ffRep.Rows, FastForwardBench{
					Scheme:           scheme.String(),
					HZ:               hz,
					FastForward:      ff,
					Seconds:          sec,
					EventsDispatched: probe.EventsDispatched,
					LaneFires:        probe.LaneFires,
					TicksCoalesced:   probe.TicksCoalesced,
					EventsPerVirtSec: probe.EventsPerVirtualSec(),
					Speedup:          speedup,
				})
				fmt.Fprintf(os.Stderr, "fastforward scheme=%-3s hz=%-4d ff=%-5v %7.3fs  speedup=%.2fx\n",
					scheme, hz, ff, sec, speedup)
			}
		}
	}
	writeJSON(out, ffRep)
}

func runSchedstat(out string, prof nas.Profile, reps int) {
	statRep := SchedstatReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Profile:    prof.Name(),
		Scheme:     experiments.HPL.String(),
		Reps:       reps,
	}
	// The streaming writer's hot path: one canonical JSONL encode per trace
	// event into a reused buffer (allocs/op must stay 0), and the same
	// through the buffered Writer front end.
	swEv := schedstat.NewSwitchEvent(sim.Time(123456789), 3,
		&task.Task{ID: 17, Name: "rank3", State: task.Runnable},
		&task.Task{ID: 12, Name: "ksoftirqd"})
	statRep.Writer = append(statRep.Writer,
		engineBench("AppendJSONL", func(b *testing.B) {
			buf := make([]byte, 0, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = swEv.AppendJSONL(buf[:0])
			}
			_ = buf
		}),
		engineBench("WriterSwitch", func(b *testing.B) {
			w := schedstat.NewWriter(io.Discard)
			prev := &task.Task{ID: 17, Name: "rank3", State: task.Runnable}
			next := &task.Task{ID: 12, Name: "ksoftirqd"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Switch(sim.Time(i), 3, prev, next)
			}
		}),
	)
	// End-to-end tracer cost: identical sequential replications with no
	// tracer, with the JSONL stream going to io.Discard, and with the
	// accounting ledger. A fresh tracer per replication, as real use would.
	statModes := []struct {
		name   string
		tracer func() kernel.Tracer
	}{
		{"none", func() kernel.Tracer { return nil }},
		{"jsonl", func() kernel.Tracer { return schedstat.NewWriter(io.Discard) }},
		{"accounting", func() kernel.Tracer { return schedstat.NewAccounting() }},
	}
	var noneSec float64
	for _, m := range statModes {
		o := experiments.Options{Profile: prof, Scheme: experiments.HPL, Seed: 1}
		sw := walltime.Start()
		for r := 0; r < reps; r++ {
			o.Seed = uint64(r + 1)
			o.Tracer = m.tracer()
			experiments.Run(o)
		}
		sec := sw.Seconds()
		if m.name == "none" {
			noneSec = sec
		}
		overhead := 0.0
		if noneSec > 0 {
			overhead = 100 * (sec - noneSec) / noneSec
		}
		statRep.Modes = append(statRep.Modes, SchedstatBench{
			Mode: m.name, Seconds: sec, OverheadPct: overhead})
		fmt.Fprintf(os.Stderr, "schedstat mode=%-10s %7.3fs  overhead=%+.1f%%\n", m.name, sec, overhead)
	}
	writeJSON(out, statRep)
}

func writeJSON(path string, v any) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if path == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
