package main

import (
	"fmt"
	"slices"
	"time"

	"hplsim/internal/experiments"
	"hplsim/internal/kernel"
	"hplsim/internal/nas"
	"hplsim/internal/noise"
	"hplsim/internal/topo"
)

// nodeItem is one run of a node round.
type nodeItem struct {
	prof   nas.Profile
	scheme experiments.Scheme
	topo   topo.Topology
	storms stormMode
}

// stormMode is how a run meets the maintenance storms of noise.StormConfig.
type stormMode int

const (
	stormsDefault stormMode = iota // the default storm process
	stormsOff                      // no storms
	// stormsAtStart has a storm in progress at time zero, as in about 1.6%
	// of runs under the default process. Follow-up storms then arrive
	// every 19 simulated seconds on average rather than every 20 minutes.
	stormsAtStart
)

// stormAtStart is the storm process of stormsAtStart: the default one with
// the mean gap between storms cut to the mean storm length, which makes a
// storm active at time zero certain.
var stormAtStart = func() *noise.StormConfig {
	c := noise.DefaultStorms()
	c.MeanInterarrival = (c.DurMin + c.DurMax) / 2
	return &c
}()

// nodeWL runs rounds of single-node replications, one experiments.Run at a
// time. Round r runs every item once with seeds derived from (seed, r, item),
// so each round draws fresh noise and the phase averages over many draws.
type nodeWL struct {
	name  string
	seed  uint64
	ff    bool
	items []nodeItem
	// residual reports Table II HPL minima against the profile targets.
	residual bool
}

var nodeSchemes = []experiments.Scheme{experiments.Std, experiments.HPL}

// newNodeTable is the paper's Table II: all twelve NAS profiles under std
// and hpl on the POWER6 2x2x2 node, ticks stepped periodically at the
// default HZ as nastables ships.
func newNodeTable(o options) *nodeWL {
	w := &nodeWL{name: o.workload, seed: o.seed, residual: true}
	profs := nas.All()
	if o.size == "tiny" {
		profs = []nas.Profile{nas.MustGet("is", 'A'), nas.MustGet("cg", 'A')}
	}
	for _, p := range profs {
		for _, s := range nodeSchemes {
			w.items = append(w.items, nodeItem{prof: p, scheme: s, topo: topo.POWER6()})
		}
	}
	return w
}

// newNodeWide is fast-forwarded std and hpl runs of class-A profiles on
// wide nodes, where host time goes to boot, per-CPU scans and catch-up
// rather than to timer lanes.
//
// Storms get a fixed share of every round instead of their natural 1-2% of
// runs. On these nodes a run that meets a storm costs 40 to 180 times a
// normal one, so the random few a run would meet would set its latency
// tail. Each round therefore runs its twelve items without storms plus one
// std cg.A run on 2x64x2 with a storm at time zero, the cheapest storm run,
// which takes about half of a round's host time. The storm runs come from a
// fixed pool (see stormPool).
func newNodeWide(o options) *nodeWL {
	w := &nodeWL{name: o.workload, seed: o.seed, ff: true}
	topos := []topo.Topology{{Chips: 2, CoresPerChip: 64, ThreadsPerCore: 2}, {Chips: 4, CoresPerChip: 128, ThreadsPerCore: 2}}
	benches := []string{"ep", "lu", "cg"}
	if o.size == "tiny" {
		topos, benches = topos[:1], []string{"cg"}
	}
	for _, t := range topos {
		for _, b := range benches {
			for _, s := range nodeSchemes {
				w.items = append(w.items, nodeItem{prof: nas.MustGet(b, 'A'), scheme: s, topo: t, storms: stormsOff})
			}
		}
	}
	w.items = append(w.items, nodeItem{prof: nas.MustGet("cg", 'A'), scheme: experiments.Std, topo: topos[0], storms: stormsAtStart})
	return w
}

func (w *nodeWL) now() time.Duration { return processCPU() }

func (w *nodeWL) opts(seed uint64, it nodeItem) experiments.Options {
	o := experiments.Options{Profile: it.prof, Scheme: it.scheme, Seed: seed,
		Topo: it.topo, FastForward: w.ff, Workers: 1}
	switch it.storms {
	case stormsOff:
		o.NoStorms = true
	case stormsAtStart:
		o.Storms = stormAtStart
	}
	return o
}

// stormPool is how many storm runs node-wide cycles through, one per round.
// Their seeds do not depend on --seed: a storm run's cost spans an order of
// magnitude, so every run measures the same storm runs, the way cluster
// measures the same node models.
const stormPool = 32

// itemSeed is the seed of item i in round r.
func (w *nodeWL) itemSeed(r, i int) uint64 {
	if w.items[i].storms == stormsAtStart {
		return mix(stormPool, uint64(r%stormPool))
	}
	return mix(w.seed, uint64(r), uint64(i))
}

// setup boots each topology once and warms the program with one run of
// every item on fixed seeds, so set-up costs the same for every --seed.
func (w *nodeWL) setup(_ *speedometer, tr *tracer) error {
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	for _, t := range w.topos() {
		s := tr.begin("kernel.New", root, -1)
		kernel.New(kernel.Config{Topo: t, Seed: w.seed})
		tr.end(s)
	}
	for i, it := range w.items {
		s := tr.begin("experiments.Run", root, -1)
		experiments.Run(w.opts(mix(0, uint64(i)), it))
		tr.end(s)
	}
	return nil
}

func (w *nodeWL) topos() []topo.Topology {
	var out []topo.Topology
	for _, it := range w.items {
		if !slices.Contains(out, it.topo) {
			out = append(out, it.topo)
		}
	}
	return out
}

func (w *nodeWL) measure(sp *speedometer, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase(sp)
	var rs runStats
	var censored []string
	hplMin := map[string]float64{}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < d; r++ {
		round := tr.begin("node.round", 0, -1)
		r0, sim0 := ph.now(), ph.simSec
		for i, it := range w.items {
			s := tr.begin("experiments.Run", round, -1)
			t0 := ph.now()
			res := experiments.Run(w.opts(w.itemSeed(r, i), it))
			t1 := ph.now()
			tr.end(s)

			dt := t1 - t0
			ph.lat(t0, t1, 1)
			ph.simSec += res.VirtualSec
			ph.jobs++
			ph.attempted++
			rs.add(res, dt)
			if !res.Completed {
				// A run censored at its horizon is a failed operation,
				// not a wrong output: it is reported with its seed.
				ph.failed++
				censored = append(censored, fmt.Sprintf("%s %s seed %d", it.prof.Name(), it.scheme, w.itemSeed(r, i)))
			} else if msg := checkRun(res); msg != "" {
				ph.problem("%s %s %s round %d: %s", w.name, it.prof.Name(), it.scheme, r, msg)
			}
			if r == 0 {
				ph.digest = foldResult(ph.digest, res)
			}
			if it.scheme == experiments.HPL {
				if m, ok := hplMin[it.prof.Name()]; !ok || res.ElapsedSec < m {
					hplMin[it.prof.Name()] = res.ElapsedSec
				}
			}
		}
		tr.end(round)
		ph.endRound(r0, ph.simSec-sim0, float64(len(w.items)))
	}
	if len(censored) > 0 {
		ph.notes["censored_runs"] = censored
	}
	rs.report(ph.layer)
	if w.residual {
		// A calibration residual, not validation: nas fitted each
		// profile's work to these Table II HPL minima.
		res := map[string]float64{}
		for _, it := range w.items {
			res[it.prof.Name()] = hplMin[it.prof.Name()]/it.prof.TargetSeconds - 1
		}
		ph.notes["calibration_residual_not_validation"] = res
	}
	return ph, nil
}

// verify re-runs round 0 and requires the same digest: the simulator must
// be a pure function of its inputs.
func (w *nodeWL) verify(ph *phase) error {
	h := uint64(fnvOffset)
	for i, it := range w.items {
		h = foldResult(h, experiments.Run(w.opts(w.itemSeed(0, i), it)))
	}
	if h != ph.digest {
		ph.problem("re-running round 0 gave digest %016x, the measured round gave %016x", h, ph.digest)
	}
	return nil
}

func (w *nodeWL) probe(ph *phase, tr *tracer) error {
	ph.layer["kernel.boot_ms"] = bootMS(w.topos(), w.seed, tr)
	return nil
}

func (w *nodeWL) close() error { return nil }

// checkRun returns what is wrong with a completed run, or "".
func checkRun(res experiments.Result) string {
	switch {
	case !(res.ElapsedSec > 0) || res.ElapsedSec > res.VirtualSec:
		return fmt.Sprintf("elapsed %v s outside (0, virtual %v s]", res.ElapsedSec, res.VirtualSec)
	case res.EventsDispatched == 0:
		return "dispatched no events"
	}
	return ""
}

// foldResult folds every simulated field of a Result into h. ShardPhases is
// a host-side execution diagnostic and stays out.
func foldResult(h uint64, r experiments.Result) uint64 {
	h = foldF(h, r.ElapsedSec)
	h = foldF(h, r.VirtualSec)
	h = foldB(h, r.Completed)
	w := r.Window
	for _, x := range []uint64{w.ContextSwitches, w.Migrations, w.VoluntarySwitches,
		w.InvoluntarySwitches, w.Wakeups, w.BalanceMoves, w.Forks, w.Ticks, w.TicksCoalesced} {
		h = fold(h, x)
	}
	s := r.Sched
	for _, x := range []uint64{s.BalanceCalls, s.BalancePulls, s.IdlePulls, s.IdlePushes,
		s.SmallImbalanceSkips, s.CooldownSkips, s.WakePreempts} {
		h = fold(h, x)
	}
	h = fold(h, r.EventsDispatched)
	h = fold(h, r.LaneFires)
	h = fold(h, r.TicksCoalesced)
	e := r.Energy
	h = fold(h, uint64(e.Elapsed))
	h = foldF(h, e.Joules)
	h = foldF(h, e.AvgWatts)
	h = fold(h, uint64(e.ThreadBusy))
	h = fold(h, uint64(e.CoreActive))
	h = fold(h, uint64(len(r.IterationSec)))
	for _, x := range r.IterationSec {
		h = foldF(h, x)
	}
	return h
}

// runStats accumulates the per-layer counters of node runs.
type runStats struct {
	runs, events, laneFires, coalesced      float64
	ctx, migr, balCalls, balPulls, preempts float64
	hostNS                                  float64
}

func (a *runStats) add(r experiments.Result, dt time.Duration) {
	a.runs++
	a.events += float64(r.EventsDispatched)
	a.laneFires += float64(r.LaneFires)
	a.coalesced += float64(r.TicksCoalesced)
	a.ctx += float64(r.Window.ContextSwitches)
	a.migr += float64(r.Window.Migrations)
	a.balCalls += float64(r.Sched.BalanceCalls)
	a.balPulls += float64(r.Sched.BalancePulls)
	a.preempts += float64(r.Sched.WakePreempts)
	a.hostNS += float64(dt)
}

func (a *runStats) report(m map[string]float64) {
	if a.runs == 0 {
		return
	}
	m["sim.events_per_run"] = a.events / a.runs
	m["sim.lane_fires_per_run"] = a.laneFires / a.runs
	m["sim.host_ns_per_event"] = a.hostNS / (a.events + a.laneFires)
	m["kernel.ticks_coalesced_per_run"] = a.coalesced / a.runs
	if a.coalesced+a.laneFires > 0 {
		m["kernel.ff_elided_frac"] = a.coalesced / (a.coalesced + a.laneFires)
	}
	m["sched.ctx_switches_per_run"] = a.ctx / a.runs
	m["sched.migrations_per_run"] = a.migr / a.runs
	m["sched.balance_calls_per_run"] = a.balCalls / a.runs
	m["sched.balance_pulls_per_run"] = a.balPulls / a.runs
	m["sched.wake_preempts_per_run"] = a.preempts / a.runs
}

// bootMS times kernel.New directly, the median of several boots per
// topology, averaged over the topologies.
func bootMS(topos []topo.Topology, seed uint64, tr *tracer) float64 {
	root := tr.begin("boot.probe", 0, -1)
	defer tr.end(root)
	var sum float64
	for _, t := range topos {
		n := 200
		if t.NumCPUs() > 64 {
			n = 20
		}
		boots := make([]float64, n)
		for i := range boots {
			s := tr.begin("kernel.New", root, -1)
			t0 := processCPU()
			kernel.New(kernel.Config{Topo: t, Seed: seed})
			boots[i] = ms(processCPU() - t0)
			tr.end(s)
		}
		sum += median(boots)
	}
	return sum / float64(len(topos))
}
