package main

import (
	"time"

	"hplsim/internal/batch"
	"hplsim/internal/experiments"
	"hplsim/internal/nas"
	"hplsim/internal/sim"
	"hplsim/internal/topo"
)

// clusterPolicies are the dispatcher policies every round runs.
var clusterPolicies = []string{"fcfs", "easy", "conservative"}

// clusterWL is the two-level pipeline: empirical std and hpl node models
// calibrated from kernel runs at set-up, then batch.Simulate over Poisson
// traces offered faster than the cluster drains them, so the waiting queue
// reaches hundreds of jobs. No kernel code runs in the timed phase.
type clusterWL struct {
	seed      uint64
	nodes     int
	calibReps int
	// jobs is the trace prefix each policy simulates. Conservative
	// backfill plans every waiting job at every decision, so its cost
	// grows fastest with queue depth; the prefixes keep each policy near a
	// third of a round.
	jobs    map[string]int
	nTraces int

	models   [2]*batch.EmpiricalModel // std, hpl
	traces   [][]batch.Job
	calibSec []float64
}

var clusterSchemes = [2]experiments.Scheme{experiments.Std, experiments.HPL}

// clusterCalibSeed seeds the node-model calibration. Every run simulates
// the same two calibrated node models; --seed varies the job traces. Large
// jobs draw their runtime from the top of the slowdown distribution, so a
// calibration seeded from --seed would let a handful of storm samples
// rescale every makespan of the run.
const clusterCalibSeed = 1

func newCluster(o options) *clusterWL {
	w := &clusterWL{seed: o.seed, nodes: 64, calibReps: 96, nTraces: 64,
		jobs: map[string]int{"fcfs": 1200, "easy": 1400, "conservative": 400}}
	if o.size == "tiny" {
		w.calibReps, w.nTraces = 8, 2
		w.jobs = map[string]int{"fcfs": 200, "easy": 200, "conservative": 100}
	}
	return w
}

func (w *clusterWL) now() time.Duration { return processCPU() }

func (w *clusterWL) calibProfile() nas.Profile { return nas.MustGet("is", 'A') }

func (w *clusterWL) setup(_ *speedometer, tr *tracer) error {
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	t0 := processCPU()
	maxSlow := 1.0
	for i, scheme := range clusterSchemes {
		s := tr.begin("experiments.BatchCalibrate", root, -1)
		m, err := experiments.BatchCalibrate(w.calibProfile(), scheme, w.calibReps, clusterCalibSeed, topo.Topology{}, 1, 1)
		tr.end(s)
		if err != nil {
			return err
		}
		w.models[i] = m
		if m.MaxSlowdown() > maxSlow {
			maxSlow = m.MaxSlowdown()
		}
	}
	w.calibSec = append(w.calibSec, (processCPU() - t0).Seconds())

	n := 0
	for _, j := range w.jobs {
		n = max(n, j)
	}
	tc := batch.TraceConfig{
		Kind: batch.TracePoisson,
		Jobs: n,
		// A job averages about 7 nodes for about 7 minutes, so 64
		// nodes drain one every ~45 s: arrivals come twice as fast.
		// Far above saturation, queue depth depends little on the
		// sampled trace, which keeps per-decision cost steady across
		// seeds.
		MeanInterarrival: 22500 * sim.Millisecond,
		MaxRanks:         w.nodes * topo.POWER6().NumCPUs() / 2,
		MeanWork:         300 * sim.Second,
		WorkSpread:       4,
		EstFactor:        maxSlow + 0.1,
		EstNoise:         0.5,
		PrioLevels:       1,
	}
	w.traces = w.traces[:0]
	for k := 0; k < w.nTraces; k++ {
		jobs, err := batch.GenerateTrace(tc, sim.NewRNG(mix(w.seed, uint64(k))))
		if err != nil {
			return err
		}
		w.traces = append(w.traces, jobs)
	}
	return nil
}

// measure runs rounds; round r simulates every policy on trace r mod
// nTraces, under the std model for even traces and the hpl model for odd
// ones. A round that repeats a trace must reproduce its digest, and the
// phase digest covers rounds 0 and 1 plus draws from both models.
func (w *clusterWL) measure(sp *speedometer, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase(sp)
	traceDigest := make([]uint64, w.nTraces)
	hostNS := map[string]float64{}
	decisions := map[string]float64{}
	var rounds, backfills, waiting, sims float64
	cluster := batch.Cluster{Nodes: w.nodes, RanksPerNode: topo.POWER6().NumCPUs()}

	start := time.Now()
	for r := 0; r < 2 || time.Since(start) < d; r++ {
		c := r % w.nTraces
		trace, model := w.traces[c], w.models[c%2]
		round := tr.begin("cluster.round", 0, -1)
		r0, sim0, jobs0 := ph.now(), ph.simSec, ph.jobs
		h := uint64(fnvOffset)
		for pi, name := range clusterPolicies {
			policy, err := batch.NewPolicy(name, 0.05)
			if err != nil {
				return nil, err
			}
			jobs := trace[:w.jobs[name]]
			cfg := batch.Config{Cluster: cluster, Policy: policy, Model: model, Jobs: jobs,
				Seed: mix(w.seed, uint64(c))}
			s := tr.begin("batch.Simulate", round, -1)
			t0 := ph.now()
			res := batch.Simulate(cfg)
			t1 := ph.now()
			tr.end(s)

			// One latency sample per simulation: its mean dispatcher
			// cycle (event advance, view, policy plan).
			dt := t1 - t0
			ph.lat(t0, t1, float64(res.Decisions))

			ph.attempted += len(jobs)
			ph.jobs += float64(res.Dispatched)
			ph.simSec += sim.Duration(res.Makespan).Seconds()
			if res.Dispatched != len(jobs) {
				ph.failed += len(jobs) - res.Dispatched
				ph.problem("cluster %s round %d dispatched %d of %d jobs", name, r, res.Dispatched, len(jobs))
			}
			hostNS[name] += float64(dt)
			decisions[name] += float64(res.Decisions)
			backfills += float64(res.Backfills)
			var wait sim.Duration
			for _, j := range res.Jobs {
				wait += j.Wait
			}
			waiting += wait.Seconds() / sim.Duration(res.Makespan).Seconds()
			sims++

			h = fold(h, uint64(pi))
			h = fold(h, res.Fingerprint)
			h = fold(h, uint64(res.Makespan))
			h = fold(h, uint64(res.Dispatched))
			h = fold(h, uint64(res.Decisions))
			h = fold(h, uint64(res.Backfills))
		}
		tr.end(round)
		ph.endRound(r0, ph.simSec-sim0, ph.jobs-jobs0)
		rounds++
		if r < w.nTraces {
			traceDigest[c] = h
		} else if traceDigest[c] != h {
			ph.problem("cluster round %d repeats trace %d but its digest %016x differs from %016x",
				r, c, h, traceDigest[c])
		}
		if r < 2 {
			ph.digest = fold(ph.digest, h)
		}
	}

	// The calibrated models enter the digest through their largest sample
	// and a fixed set of quantile draws.
	for _, m := range w.models {
		ph.digest = foldF(ph.digest, m.MaxSlowdown())
		rng := sim.NewRNG(1)
		for q := 0; q < 64; q++ {
			ph.digest = fold(ph.digest, uint64(m.Runtime(batch.Job{Work: sim.Second}, 1, rng.Split(uint64(q)))))
		}
	}

	var dec float64
	for _, name := range clusterPolicies {
		dec += decisions[name]
		ph.layer["batch.us_per_decision."+name] = hostNS[name] / decisions[name] / 1e3
	}
	ph.layer["batch.decisions"] = dec / rounds
	ph.layer["batch.backfills"] = backfills / rounds
	ph.layer["batch.mean_waiting_jobs"] = waiting / sims
	ph.layer["experiments.calibrate_s"] = median(w.calibSec)
	return ph, nil
}

func (w *clusterWL) verify(*phase) error { return nil }

// probe re-runs the calibration kernel runs directly, outside the profiled
// interval, for the node layers' counters, and requires them to reproduce
// each model's largest slowdown sample.
func (w *clusterWL) probe(ph *phase, tr *tracer) error {
	var rs runStats
	prof := w.calibProfile()
	for i, scheme := range clusterSchemes {
		s := tr.begin("experiments.RunManyOpt", 0, -1)
		t0 := processCPU()
		res := experiments.RunManyOpt(experiments.Options{Profile: prof, Scheme: scheme,
			Seed: clusterCalibSeed, FastForward: true}, w.calibReps, 1)
		dt := (processCPU() - t0) / time.Duration(len(res))
		tr.end(s)
		maxSlow := 0.0
		for _, r := range res {
			rs.add(r, dt)
			if r.Completed {
				maxSlow = max(maxSlow, r.ElapsedSec/prof.TargetSeconds)
			}
		}
		if maxSlow != w.models[i].MaxSlowdown() {
			ph.problem("calibration re-run for %s gave max slowdown %v, the model holds %v",
				scheme, maxSlow, w.models[i].MaxSlowdown())
		}
	}
	rs.report(ph.layer)
	ph.layer["kernel.boot_ms"] = bootMS([]topo.Topology{topo.POWER6()}, w.seed, tr)
	return nil
}

func (w *clusterWL) close() error { return nil }
