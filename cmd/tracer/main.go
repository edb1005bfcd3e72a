// Command tracer records and exports the scheduling timeline of one
// measured run, and inspects recorded traces. Three modes:
//
//	tracer [-format gantt|jsonl|perfetto] [-o FILE] [run flags]
//	    record one run and export its trace: a text Gantt chart (default),
//	    the canonical JSONL event stream, or Chrome/Perfetto trace_event
//	    JSON for https://ui.perfetto.dev / chrome://tracing.
//
//	tracer stat [run flags]
//	    record one run and print its schedstat tables: per-task run /
//	    runnable-wait / block accounting, per-CPU class occupancy, and the
//	    scheduling-latency histogram.
//
//	tracer diff A.jsonl B.jsonl [-limit N]
//	    compare two JSONL traces and print the first divergences; exits 1
//	    when the traces differ (the golden-trace suite prints this output).
//
// Examples:
//
//	tracer -bench is -class A -sched std -from 150ms -window 400ms
//	tracer -format perfetto -o is_std.json -bench is -sched std
//	tracer stat -bench is -sched hpl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hplsim/internal/experiments"
	"hplsim/internal/nas"
	"hplsim/internal/schedstat"
	"hplsim/internal/sim"
)

// runFlags are the flags shared by the record modes (default and stat).
type runFlags struct {
	bench, class, sched string
	seed                uint64
	fastForward         bool
	from, window        time.Duration
	cols                int
	events              bool
	format, out         string
}

func declareRunFlags(fs *flag.FlagSet) *runFlags {
	var rf runFlags
	fs.StringVar(&rf.bench, "bench", "is", "NAS benchmark: cg, ep, ft, is, lu, mg")
	fs.StringVar(&rf.class, "class", "A", "NAS class: A or B")
	fs.StringVar(&rf.sched, "sched", "std", "scheduler scheme")
	fs.Uint64Var(&rf.seed, "seed", 1, "random seed")
	fs.BoolVar(&rf.fastForward, "fastforward", false, "fast-forward quiescent ticks (trace-identical)")
	fs.DurationVar(&rf.from, "from", 150*time.Millisecond, "window start, gantt format (virtual time)")
	fs.DurationVar(&rf.window, "window", 400*time.Millisecond, "window length, gantt format")
	fs.IntVar(&rf.cols, "cols", 120, "Gantt width in cells")
	fs.BoolVar(&rf.events, "events", false, "also dump migration/wake events in the window (gantt)")
	fs.StringVar(&rf.format, "format", "gantt", "export format: gantt, jsonl, perfetto")
	fs.StringVar(&rf.out, "o", "-", "output file for jsonl/perfetto ('-' for stdout)")
	return &rf
}

func (rf *runFlags) options() (experiments.Options, error) {
	prof, err := nas.Get(rf.bench, rf.class[0])
	if err != nil {
		return experiments.Options{}, err
	}
	for _, sc := range experiments.Schemes() {
		if sc.String() == rf.sched {
			return experiments.Options{
				Profile:     prof,
				Scheme:      sc,
				Seed:        rf.seed,
				FastForward: rf.fastForward,
			}, nil
		}
	}
	return experiments.Options{}, fmt.Errorf("unknown scheme %q", rf.sched)
}

func openOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "stat":
			statMain(args[1:])
			return
		case "diff":
			diffMain(args[1:])
			return
		}
	}
	recordMain(args)
}

// recordMain runs one experiment and exports its trace in -format.
func recordMain(args []string) {
	fs := flag.NewFlagSet("tracer", flag.ExitOnError)
	rf := declareRunFlags(fs)
	fs.Parse(args)
	opt, err := rf.options()
	if err != nil {
		fail(err)
	}

	switch rf.format {
	case "gantt":
		col := schedstat.NewCollector()
		opt.Tracer = col
		r := experiments.Run(opt)
		lo := sim.Time(sim.DurationOf(rf.from))
		hi := lo.Add(sim.DurationOf(rf.window))
		fmt.Printf("%s under %s (seed %d): elapsed %.3fs, %d migrations, %d ctx switches\n\n",
			opt.Profile.Name(), opt.Scheme, rf.seed, r.ElapsedSec,
			r.Window.Migrations, r.Window.ContextSwitches)
		fmt.Print(schedstat.Gantt(col.Events, lo, hi, rf.cols))
		if rf.events {
			fmt.Println("\nevents:")
			n := 0
			for _, e := range col.Events {
				at := sim.Time(e.T)
				if at < lo || at > hi {
					continue
				}
				var where string
				switch e.Ev {
				case schedstat.KindMigrate:
					where = fmt.Sprintf("cpu%d->cpu%d", e.From, e.To)
				case schedstat.KindWake:
					where = fmt.Sprintf("cpu%d", e.CPU)
				default:
					continue
				}
				fmt.Printf("  %v %-8s %-12s %s\n", at, e.Ev, e.Task, where)
				n++
				if n > 200 {
					fmt.Println("  ... (truncated)")
					break
				}
			}
		}

	case "jsonl":
		out, err := openOut(rf.out)
		if err != nil {
			fail(err)
		}
		w := schedstat.NewWriter(out)
		opt.Tracer = w
		experiments.Run(opt)
		if err := w.Flush(); err != nil {
			fail(err)
		}
		if rf.out != "-" {
			out.Close()
		}

	case "perfetto":
		col := schedstat.NewCollector()
		opt.Tracer = col
		experiments.Run(opt)
		out, err := openOut(rf.out)
		if err != nil {
			fail(err)
		}
		if err := schedstat.WritePerfetto(out, col.Events); err != nil {
			fail(err)
		}
		if rf.out != "-" {
			out.Close()
		}

	default:
		fail(fmt.Errorf("unknown format %q (want gantt, jsonl, perfetto)", rf.format))
	}
}

// statMain runs one experiment and prints its schedstat tables.
func statMain(args []string) {
	fs := flag.NewFlagSet("tracer stat", flag.ExitOnError)
	rf := declareRunFlags(fs)
	fs.Parse(args)
	opt, err := rf.options()
	if err != nil {
		fail(err)
	}
	r, acct := experiments.RunStat(opt)
	fmt.Printf("%s under %s (seed %d): elapsed %.3fs over %.3fs virtual\n\n",
		opt.Profile.Name(), opt.Scheme, rf.seed, r.ElapsedSec, r.VirtualSec)
	fmt.Println(acct.TaskTable())
	fmt.Println(acct.CPUTable())
	fmt.Println(acct.WaitHistTable())
}

// diffMain compares two JSONL trace files.
func diffMain(args []string) {
	fs := flag.NewFlagSet("tracer diff", flag.ExitOnError)
	limit := fs.Int("limit", 20, "maximum mismatches to print")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fail(fmt.Errorf("usage: tracer diff A.jsonl B.jsonl"))
	}
	diffs, err := schedstat.DiffFiles(fs.Arg(0), fs.Arg(1), *limit)
	if err != nil {
		fail(err)
	}
	if len(diffs) == 0 {
		fmt.Printf("traces identical\n")
		return
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	os.Exit(1)
}
