package experiments

import (
	"fmt"
	"strings"

	"hplsim/internal/batch"
	"hplsim/internal/nas"
	"hplsim/internal/sim"
	"hplsim/internal/topo"
)

// This file is the second level of the two-level scheduling study
// (ROADMAP item 2, after Eleliemy/Ciorba arXiv:1811.01344): the batch
// layer's node model is calibrated from full single-node kernel runs, so
// node-level OS policy (Std vs HPL) propagates into cluster-level
// makespan, utilization, and backfill accuracy — the comparison the
// paper's single-node testbed could not make.

// BatchCalibrate measures a node model for one scheduling scheme: reps
// full kernel runs of the profile, each run's slowdown taken as elapsed
// over the profile's ideal (noise-free) target time, collected into a
// batch.EmpiricalModel. The batch simulator then draws each job's runtime
// as Work times the max-of-nodes order statistic over this distribution —
// the hybrid construction of internal/cluster, reused one level up.
// workers bounds the replication pool (0 = GOMAXPROCS).
func BatchCalibrate(prof nas.Profile, scheme Scheme, reps int, seed uint64, machine topo.Topology, workers int,
	shards int, // Deprecated: ignored; every calibration run is sequential.
) (*batch.EmpiricalModel, error) {
	if reps < 1 {
		return nil, fmt.Errorf("experiments: batch calibration needs reps >= 1, got %d", reps)
	}
	rs := RunManyOpt(Options{
		Profile: prof, Scheme: scheme, Seed: seed, Topo: machine,
		FastForward: true,
	}, reps, workers)
	samples := make([]float64, 0, len(rs))
	for _, r := range rs {
		if !r.Completed {
			continue
		}
		samples = append(samples, r.ElapsedSec/prof.TargetSeconds)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("experiments: every calibration run was censored (%s under %s)", prof.Name(), scheme)
	}
	return batch.NewEmpiricalModel(scheme.String(), samples)
}

// BatchStudyOptions parameterises the cluster-level Std-vs-HPL contrast.
type BatchStudyOptions struct {
	// Profile is the per-node workload used for calibration (default
	// is.A, the cheapest paper benchmark).
	Profile nas.Profile
	// Machine is the node topology (zero = the paper's POWER6 2x2x2);
	// its logical CPU count is the cluster's ranks-per-node.
	Machine topo.Topology
	// Nodes is the cluster size.
	Nodes int
	// CalibReps is the number of kernel runs behind each scheme's model.
	CalibReps int
	// Seeds are the trace seeds; each yields one row per policy/scheme.
	Seeds []uint64
	// Policies are batch.NewPolicy wire names.
	Policies []string
	// Schemes are the node-kernel schemes to contrast.
	Schemes []Scheme
	// Trace shapes the job load. The zero value selects a default
	// Poisson trace sized to the cluster.
	Trace batch.TraceConfig
	// Seed seeds the calibration kernel runs.
	Seed uint64
	// Workers bounds calibration parallelism (0 = GOMAXPROCS).
	Workers int
}

// BatchStudyRow is one (seed, policy, scheme) cell of the study.
type BatchStudyRow struct {
	Seed        uint64
	Policy      string
	Scheme      string
	Makespan    float64 // seconds
	Utilization float64
	MeanBSLD    float64
	MeanWaitSec float64
	Backfills   int
	Fingerprint uint64
}

// defaultBatchTrace sizes a Poisson load for the cluster: jobs up to half
// the machine, minute-scale work, honest but sloppy estimates.
func defaultBatchTrace(nodes, ranksPerNode int, maxSlowdown float64) batch.TraceConfig {
	maxRanks := nodes * ranksPerNode / 2
	if maxRanks < 1 {
		maxRanks = 1
	}
	return batch.TraceConfig{
		Kind:             batch.TracePoisson,
		Jobs:             40,
		MeanInterarrival: 45 * sim.Second,
		MaxRanks:         maxRanks,
		MeanWork:         300 * sim.Second,
		WorkSpread:       4,
		EstFactor:        maxSlowdown + 0.1,
		EstNoise:         0.5,
		PrioLevels:       1,
	}
}

// BatchStudy runs the full grid: calibrate one node model per scheme,
// generate one job trace per seed (identical across policies and schemes),
// and simulate every combination. Identical traces mean every makespan
// delta is attributable to the node kernel's noise profile or the queue
// policy — nothing else varies.
func BatchStudy(opt BatchStudyOptions) ([]BatchStudyRow, error) {
	if opt.Nodes < 1 {
		return nil, fmt.Errorf("experiments: batch study needs a positive cluster size")
	}
	if len(opt.Seeds) == 0 || len(opt.Policies) == 0 || len(opt.Schemes) == 0 {
		return nil, fmt.Errorf("experiments: batch study needs seeds, policies, and schemes")
	}
	ranksPerNode := opt.Machine.NumCPUs()
	if ranksPerNode == 0 {
		ranksPerNode = topo.POWER6().NumCPUs()
	}
	cluster := batch.Cluster{Nodes: opt.Nodes, RanksPerNode: ranksPerNode}

	models := make([]*batch.EmpiricalModel, len(opt.Schemes))
	maxSlow := 1.0
	for i, scheme := range opt.Schemes {
		m, err := BatchCalibrate(opt.Profile, scheme, opt.CalibReps, opt.Seed, opt.Machine, opt.Workers, 0)
		if err != nil {
			return nil, err
		}
		models[i] = m
		if m.MaxSlowdown() > maxSlow {
			maxSlow = m.MaxSlowdown()
		}
	}

	var rows []BatchStudyRow
	for _, seed := range opt.Seeds {
		tc := opt.Trace
		if tc.Kind == "" {
			tc = defaultBatchTrace(opt.Nodes, ranksPerNode, maxSlow)
		}
		trace, err := batch.GenerateTrace(tc, sim.NewRNG(seed).Split(0xbeef))
		if err != nil {
			return nil, err
		}
		for _, policyName := range opt.Policies {
			policy, err := batch.NewPolicy(policyName, 0.05)
			if err != nil {
				return nil, err
			}
			for i, scheme := range opt.Schemes {
				res := batch.Simulate(batch.Config{
					Cluster: cluster,
					Policy:  policy,
					Model:   models[i],
					Jobs:    trace,
					Seed:    seed,
				})
				rows = append(rows, BatchStudyRow{
					Seed:        seed,
					Policy:      policyName,
					Scheme:      scheme.String(),
					Makespan:    res.Makespan.Seconds(),
					Utilization: res.Utilization,
					MeanBSLD:    res.MeanBoundedSlowdown,
					MeanWaitSec: res.MeanWait.Seconds(),
					Backfills:   res.Backfills,
					Fingerprint: res.Fingerprint,
				})
			}
		}
	}
	return rows, nil
}

// FormatBatchStudy renders the study as a fixed-width table, one row per
// (seed, policy, scheme) cell.
func FormatBatchStudy(rows []BatchStudyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Two-level scheduling: cluster metrics under identical job traces\n")
	fmt.Fprintf(&b, "%6s | %-12s | %-6s | %12s %7s %9s %11s %9s\n",
		"Seed", "Policy", "Node", "Makespan(s)", "Util", "MeanBSLD", "MeanWait(s)", "Backfills")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d | %-12s | %-6s | %12.1f %7.3f %9.2f %11.1f %9d\n",
			r.Seed, r.Policy, r.Scheme, r.Makespan, r.Utilization, r.MeanBSLD, r.MeanWaitSec, r.Backfills)
	}
	return b.String()
}
