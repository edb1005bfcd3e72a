// Command nastables regenerates the paper's Tables Ia, Ib, and II: scheduler
// OS noise (CPU migrations, context switches) and execution-time statistics
// for the NAS Parallel Benchmarks under the standard Linux scheduler and
// under HPL.
//
// Usage:
//
//	nastables -table 1a|1b|2|sched|all [-reps 1000] [-seed 1] [-topo 2x2x2]
//
// Table "sched" is not from the paper: it reports the schedstat view of one
// run per scheme — total and worst per-rank scheduling latency, involuntary
// preemptions, and migrations (see internal/schedstat).
//
// The paper uses 1000 repetitions per configuration; the default here is
// 200, which reproduces every min/avg trend and most tails in seconds of
// wall time. Raise -reps for the full distributions.
package main

import (
	"flag"
	"fmt"
	"os"

	"hplsim/internal/experiments"
	"hplsim/internal/nas"
	"hplsim/internal/topo"
)

func main() {
	table := flag.String("table", "all", "which table to produce: 1a, 1b, 2, sched, all")
	reps := flag.Int("reps", 200, "repetitions per configuration (paper: 1000)")
	seed := flag.Uint64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "replication worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	bench := flag.String("bench", "is", "NAS benchmark for -table sched")
	class := flag.String("class", "A", "NAS class for -table sched")
	topoSpec := flag.String("topo", "", "machine topology as chips x cores x threads, e.g. 4x128x2 (default: the paper's 2x2x2)")
	ff := flag.Bool("ff", false, "fast-forward quiescent timer ticks (identical tables, less host work)")
	flag.Parse()

	var machine topo.Topology
	if *topoSpec != "" {
		var err error
		machine, err = topo.Parse(*topoSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	ex := experiments.Exec{Workers: *workers, FastForward: *ff}
	switch *table {
	case "sched":
		prof, err := nas.Get(*bench, (*class)[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(experiments.FormatTableSchedstat(prof.Name(),
			experiments.TableSchedstat(prof,
				[]experiments.Scheme{experiments.Std, experiments.HPL}, *seed, machine, ex)))
	case "1a":
		fmt.Print(experiments.FormatTableI(
			"Table Ia: Scheduler OS noise for NAS (standard Linux)",
			experiments.TableI(experiments.Std, *reps, *seed, ex, machine)))
	case "1b":
		fmt.Print(experiments.FormatTableI(
			"Table Ib: Scheduler OS noise for NAS (HPL)",
			experiments.TableI(experiments.HPL, *reps, *seed, ex, machine)))
	case "2":
		fmt.Print(experiments.FormatTableII(experiments.TableII(*reps, *seed, ex, machine)))
	case "all":
		fmt.Print(experiments.FormatTableI(
			"Table Ia: Scheduler OS noise for NAS (standard Linux)",
			experiments.TableI(experiments.Std, *reps, *seed, ex, machine)))
		fmt.Println()
		fmt.Print(experiments.FormatTableI(
			"Table Ib: Scheduler OS noise for NAS (HPL)",
			experiments.TableI(experiments.HPL, *reps, *seed, ex, machine)))
		fmt.Println()
		fmt.Print(experiments.FormatTableII(experiments.TableII(*reps, *seed, ex, machine)))
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q (want 1a, 1b, 2, sched, all)\n", *table)
		os.Exit(2)
	}
}
