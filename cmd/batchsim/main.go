// Command batchsim runs the two-level scheduling simulation: a cluster of
// simulated nodes fed by a batch queue with a pluggable policy (FCFS, EASY
// backfill, conservative backfill, priority aging), under a synthetic
// arrival trace (Poisson, diurnal, or bursty storms).
//
// The node model is either ideal ("exact": every job runs in its noise-free
// time) or calibrated from full single-node kernel runs ("std"/"hpl": per-run
// slowdowns of the chosen NAS profile under that kernel scheme, drawn with
// the max-of-nodes order statistic — the paper's barrier argument applied at
// cluster scale). Model "both" contrasts std and hpl under identical traces:
// the cluster-level comparison the paper's single-node testbed could not
// make.
//
// Output is a deterministic pure function of the flags: two identical
// invocations produce byte-identical output (no timestamps, no host state).
//
// Examples:
//
//	batchsim -nodes 16 -policy easy -model both
//	batchsim -nodes 64 -policy fcfs,easy -model hpl -seeds 1,2,3,4
//	batchsim -nodes 8 -policy conservative -model exact -trace bursty -jobs 60
//	batchsim -trace-out trace.json -jobs 20            (dump the trace, run nothing)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hplsim/internal/batch"
	"hplsim/internal/experiments"
	"hplsim/internal/nas"
	"hplsim/internal/sim"
	"hplsim/internal/topo"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 16, "cluster size in nodes")
		nodeTopo  = flag.String("node-topo", "", "per-node topology as chips x cores x threads (default: the paper's 2x2x2); its CPU count is the node's rank capacity")
		policies  = flag.String("policy", "easy", "comma-separated batch policies: fcfs, easy, conservative, aging")
		agingRate = flag.Float64("aging-rate", 0.05, "aging policy: priority points per second of wait")
		model     = flag.String("model", "exact", "node model: exact, std, hpl, or both")
		bench     = flag.String("bench", "is", "NAS benchmark behind the calibrated node models")
		class     = flag.String("class", "A", "NAS class behind the calibrated node models")
		calibReps = flag.Int("calib-reps", 4, "kernel runs behind each calibrated node model")
		traceKind = flag.String("trace", batch.TracePoisson, "arrival process: poisson, diurnal, bursty")
		jobs      = flag.Int("jobs", 40, "jobs per trace")
		seeds     = flag.String("seeds", "1", "comma-separated trace seeds; one table row per (seed, policy, model)")
		seed      = flag.Uint64("seed", 7, "seed of the calibration kernel runs")
		workers   = flag.Int("workers", 0, "calibration worker pool (0 = GOMAXPROCS; results are worker-count independent)")
		traceOut  = flag.String("trace-out", "", "write the first seed's generated trace as JSON and exit")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: batchsim [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()

	machine := topo.POWER6()
	if *nodeTopo != "" {
		var err error
		machine, err = topo.Parse(*nodeTopo)
		if err != nil {
			fatal(2, err)
		}
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fatal(2, err)
	}
	policyList := strings.Split(*policies, ",")
	for _, p := range policyList {
		if _, err := batch.NewPolicy(p, *agingRate); err != nil {
			fatal(2, err)
		}
	}

	prof, err := nas.Get(*bench, (*class)[0])
	if err != nil {
		fatal(2, err)
	}

	trace := batch.TraceConfig{
		Kind:             *traceKind,
		Jobs:             *jobs,
		MeanInterarrival: 45 * sim.Second,
		MaxRanks:         *nodes * machine.NumCPUs() / 2,
		MeanWork:         300 * sim.Second,
		WorkSpread:       4,
		EstFactor:        2.0, // honest upper bound for any calibrated model
		EstNoise:         0.5,
		PrioLevels:       4,
		Day:              sim.Duration(*jobs) * 45 * sim.Second,
		Burst:            8,
	}
	if trace.MaxRanks < 1 {
		trace.MaxRanks = 1
	}
	if err := trace.Validate(); err != nil {
		fatal(2, err)
	}

	if *traceOut != "" {
		jobsList, err := batch.GenerateTrace(trace, sim.NewRNG(seedList[0]).Split(0xbeef))
		if err != nil {
			fatal(1, err)
		}
		data, err := batch.MarshalTrace(jobsList)
		if err != nil {
			fatal(1, err)
		}
		if err := writeOut(*traceOut, data); err != nil {
			fatal(1, err)
		}
		return
	}

	var schemes []experiments.Scheme
	switch *model {
	case "exact":
		schemes = nil
	case "std":
		schemes = []experiments.Scheme{experiments.Std}
	case "hpl":
		schemes = []experiments.Scheme{experiments.HPL}
	case "both":
		schemes = []experiments.Scheme{experiments.Std, experiments.HPL}
	default:
		fatal(2, fmt.Errorf("unknown model %q (want exact, std, hpl, both)", *model))
	}

	if schemes == nil {
		runExact(*nodes, machine, policyList, *agingRate, seedList, trace)
		return
	}

	rows, err := experiments.BatchStudy(experiments.BatchStudyOptions{
		Profile:   prof,
		Machine:   machine,
		Nodes:     *nodes,
		CalibReps: *calibReps,
		Seeds:     seedList,
		Policies:  policyList,
		Schemes:   schemes,
		Trace:     trace,
		Seed:      *seed,
		Workers:   *workers,
	})
	if err != nil {
		fatal(1, err)
	}
	fmt.Print(experiments.FormatBatchStudy(rows))
}

// runExact simulates the ideal node model: pure queueing, no kernel noise.
func runExact(nodes int, machine topo.Topology, policies []string, agingRate float64, seeds []uint64, tc batch.TraceConfig) {
	cluster := batch.Cluster{Nodes: nodes, RanksPerNode: machine.NumCPUs()}
	var rows []experiments.BatchStudyRow
	for _, seed := range seeds {
		trace, err := batch.GenerateTrace(tc, sim.NewRNG(seed).Split(0xbeef))
		if err != nil {
			fatal(1, err)
		}
		for _, name := range policies {
			policy, err := batch.NewPolicy(name, agingRate)
			if err != nil {
				fatal(2, err)
			}
			res := batch.Simulate(batch.Config{
				Cluster: cluster, Policy: policy, Model: batch.ExactModel{},
				Jobs: trace, Seed: seed,
			})
			rows = append(rows, experiments.BatchStudyRow{
				Seed: seed, Policy: name, Scheme: "exact",
				Makespan:    res.Makespan.Seconds(),
				Utilization: res.Utilization,
				MeanBSLD:    res.MeanBoundedSlowdown,
				MeanWaitSec: res.MeanWait.Seconds(),
				Backfills:   res.Backfills,
				Fingerprint: res.Fingerprint,
			})
		}
	}
	fmt.Print(experiments.FormatBatchStudy(rows))
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds")
	}
	return out, nil
}

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "batchsim:", err)
	os.Exit(code)
}
