// Command hplsim runs a single measured experiment: one NAS configuration
// under one scheduler scheme, with the full measurement chain
// (perf -> chrt -> mpiexec -> ranks) on a freshly booted simulated node.
//
// Usage:
//
//	hplsim -bench ep -class A -sched hpl [-reps 10] [-seed 1] [-hz 250]
//	       [-topo 2x2x2] [-no-daemons] [-no-storms] [-spin 20ms] [-v]
//
// Schemes: std (CFS), rt (SCHED_RR), hpl (the paper's scheduler),
// hpl-dynamic and hpl-naive (ablations), pinned (static affinity),
// nice (nice -20).
package main

import (
	"flag"
	"fmt"
	"os"

	"hplsim/internal/experiments"
	"hplsim/internal/kernel"
	"hplsim/internal/nas"
	"hplsim/internal/sim"
	"hplsim/internal/stats"
	"hplsim/internal/topo"
	"hplsim/internal/walltime"
)

func parseScheme(s string) (experiments.Scheme, bool) {
	for _, sc := range experiments.Schemes() {
		if sc.String() == s {
			return sc, true
		}
	}
	return 0, false
}

func main() {
	bench := flag.String("bench", "ep", "NAS benchmark: cg, ep, ft, is, lu, mg")
	class := flag.String("class", "A", "NAS class: A or B")
	workload := flag.String("workload", "", "JSON file with a custom workload spec (overrides -bench/-class)")
	schedName := flag.String("sched", "hpl", "scheduler scheme: std, rt, hpl, hpl-dynamic, hpl-naive, pinned, nice")
	reps := flag.Int("reps", 10, "number of repetitions")
	seed := flag.Uint64("seed", 1, "base random seed")
	hz := flag.Int("hz", 0, "timer tick frequency (0 = default 250)")
	topoSpec := flag.String("topo", "", "machine topology as chips x cores x threads, e.g. 4x128x2 (default: the paper's 2x2x2)")
	noDaemons := flag.Bool("no-daemons", false, "disable the background daemon population")
	noStorms := flag.Bool("no-storms", false, "disable heavy maintenance storms")
	spin := flag.Duration("spin", 0, "MPI spin window before blocking (0 = default 20ms)")
	workers := flag.Int("workers", 0, "replication worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	ff := flag.Bool("ff", false, "fast-forward quiescent timer ticks (identical results, less host work)")
	verbose := flag.Bool("v", false, "print every run")
	flag.Parse()

	var prof nas.Profile
	if *workload != "" {
		f, err := os.Open(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		prof, err = nas.ParseCustom(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		if len(*class) != 1 || (*class != "A" && *class != "B") {
			fmt.Fprintln(os.Stderr, "class must be A or B")
			os.Exit(2)
		}
		var err error
		prof, err = nas.Get(*bench, (*class)[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	scheme, ok := parseScheme(*schedName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schedName)
		os.Exit(2)
	}
	var machine topo.Topology
	if *topoSpec != "" {
		var err error
		machine, err = topo.Parse(*topoSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if err := (kernel.Config{HZ: *hz}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opt := experiments.Options{
		Profile:       prof,
		Scheme:        scheme,
		Seed:          *seed,
		Topo:          machine,
		HZ:            *hz,
		NoDaemons:     *noDaemons,
		NoStorms:      *noStorms,
		SpinThreshold: sim.DurationOf(*spin),
		Workers:       *workers,
		FastForward:   *ff,
	}

	sw := walltime.Start()
	rs := experiments.RunMany(opt, *reps)
	wall := sw.Elapsed()

	el := make([]float64, len(rs))
	mg := make([]float64, len(rs))
	cx := make([]float64, len(rs))
	for i, r := range rs {
		el[i], mg[i], cx[i] = r.ElapsedSec, r.Migrations(), r.CtxSwitches()
		if *verbose {
			fmt.Printf("run %3d: %8.3fs  migrations=%-6.0f ctxsw=%-7.0f completed=%v\n",
				i, r.ElapsedSec, mg[i], cx[i], r.Completed)
		}
	}
	t := stats.Summarize(el)
	m := stats.Summarize(mg)
	c := stats.Summarize(cx)

	fmt.Printf("%s under %s (%d runs, %.1fs host time)\n",
		prof.Name(), scheme, *reps, wall.Seconds())
	fmt.Printf("  time (s):    min=%.3f avg=%.3f max=%.3f var=%.2f%% p99=%.3f\n",
		t.Min, t.Mean, t.Max, t.VarPct(), t.P99)
	fmt.Printf("  migrations:  min=%.0f avg=%.1f max=%.0f\n", m.Min, m.Mean, m.Max)
	fmt.Printf("  ctx switch:  min=%.0f avg=%.1f max=%.0f\n", c.Min, c.Mean, c.Max)
	if *verbose && len(rs) > 0 {
		last := rs[len(rs)-1]
		st := last.Sched
		fmt.Printf("  schedstat (last run): balance calls=%d pulls=%d idle-pulls=%d idle-pushes=%d wake-preempts=%d cooldown-skips=%d\n",
			st.BalanceCalls, st.BalancePulls, st.IdlePulls, st.IdlePushes,
			st.WakePreempts, st.CooldownSkips)
		fmt.Printf("  energy (last run):    %s\n", last.Energy)
	}
}
