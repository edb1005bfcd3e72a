package experiments

import (
	"fmt"
	"strings"

	"hplsim/internal/nas"
	"hplsim/internal/schedstat"
	"hplsim/internal/topo"
)

// RunStat is Run with the schedstat accounting ledger attached: the same
// measured run, plus per-task and per-CPU wait/run/block accounting. The
// options must not carry another tracer (one run feeds one tracer).
func RunStat(opt Options) (Result, *schedstat.Accounting) {
	if opt.Tracer != nil {
		panic("experiments: RunStat needs the tracer slot")
	}
	acct := schedstat.NewAccounting()
	opt.Tracer = acct
	r := Run(opt)
	acct.Finish()
	return r, acct
}

// SchedstatRow condenses one scheme's schedstat ledger to the columns the
// paper's story needs: how long ranks waited to get back on CPU, how often
// daemons preempted them, and how much the balancer moved them.
type SchedstatRow struct {
	Scheme       Scheme
	ElapsedSec   float64
	RankWaitMs   float64 // total runnable-wait across ranks, ms
	RankMaxWait  float64 // worst single scheduling latency of any rank, ms
	RankPreempts uint64  // involuntary rank switch-outs
	RankMigr     uint64  // rank migrations (HPL: one fork placement each)
	RankSlices   uint64
}

// TableSchedstat runs the profile once per scheme and tabulates the ranks'
// schedstat aggregates. machine overrides the topology (zero value = the
// paper's POWER6).
func TableSchedstat(prof nas.Profile, schemes []Scheme, seed uint64, machine topo.Topology, ex Exec) []SchedstatRow {
	rows := make([]SchedstatRow, 0, len(schemes))
	for _, sc := range schemes {
		r, acct := RunStat(Options{Profile: prof, Scheme: sc, Seed: seed, Topo: machine,
			FastForward: ex.FastForward})
		agg := acct.Aggregate("rank")
		rows = append(rows, SchedstatRow{
			Scheme:       sc,
			ElapsedSec:   r.ElapsedSec,
			RankWaitMs:   float64(agg.Wait) / 1e6,
			RankMaxWait:  float64(agg.WaitMax) / 1e6,
			RankPreempts: agg.Preempt,
			RankMigr:     agg.Migrations,
			RankSlices:   agg.Slices,
		})
	}
	return rows
}

// FormatTableSchedstat renders the schedstat comparison table.
func FormatTableSchedstat(name string, rows []SchedstatRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Schedstat: %s — per-rank scheduling latency by scheme\n", name)
	fmt.Fprintf(&b, "%-12s %10s %14s %14s %9s %6s %8s\n",
		"scheme", "elapsed_s", "rank_wait_ms", "max_wait_ms", "preempts", "migr", "slices")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.3f %14.3f %14.3f %9d %6d %8d\n",
			r.Scheme, r.ElapsedSec, r.RankWaitMs, r.RankMaxWait,
			r.RankPreempts, r.RankMigr, r.RankSlices)
	}
	return b.String()
}
