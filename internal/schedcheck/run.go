package schedcheck

import (
	"fmt"

	"hplsim/internal/kernel"
	"hplsim/internal/mpi"
	"hplsim/internal/noise"
	"hplsim/internal/perf"
	"hplsim/internal/sched"
	"hplsim/internal/sched/hpc"
	"hplsim/internal/schedstat"
	"hplsim/internal/sim"
	"hplsim/internal/task"
	"hplsim/internal/topo"
)

// rankObs are the per-workload observables the metamorphic oracles compare.
// "Workload" is the phase list from the scenario; under a permutation the
// workload runs in a different fork slot but keeps its observables.
type rankObs struct {
	Completed  bool
	Runtime    sim.Duration // exit minus spawn; censored at the horizon
	Busy       sim.Duration // accumulated CPU time, including barrier spin
	Migrations uint64
}

// report is the outcome of one simulation of a scenario.
type report struct {
	eventHash uint64
	obs       []rankObs // indexed by workload
	domViol   []string  // class-priority dominance violations
	migViol   []string  // fork-time-only migration violations
	latViol   []string  // runnable-wait latency-bound violations
	perf      perf.Counters
}

// recorder implements kernel.Tracer: it probes the scheduler at every
// context switch and migration, fingerprints the engine's dispatch stream
// through the Observer hook, and feeds a schedstat accounting ledger whose
// wait measurements the latency oracle checks against the round-robin
// bound.
type recorder struct {
	k      *kernel.Kernel
	scheme string

	hash      uint64
	domViol   []string
	migViol   []string
	latViol   []string
	forkMoves []int // per task ID, count of fork-placement migrations

	acct *schedstat.Accounting
	// latOn arms the runnable-wait latency oracle: under ideal HPL physics
	// with no RT noise and no migration chaos, an HPC task made runnable
	// behind `ahead` same-class tasks waits at most ahead*(timeslice +
	// tick period) — each task ahead runs one full quantum plus the tick
	// granularity at which slice expiry is detected.
	latOn     bool
	slicePlus sim.Duration   // hpc.Timeslice + tick period, the per-ahead-task budget
	bounds    []sim.Duration // per task ID; noBound when unarmed
}

// noBound marks a task with no armed wait bound (an ahead count of zero is
// a legitimate bound, so the sentinel is negative).
const noBound = sim.Duration(-1)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newRecorder(s Scenario) *recorder {
	r := &recorder{
		scheme: s.Scheme,
		hash:   fnvOffset,
		acct:   schedstat.NewAccounting(),
		latOn: s.Physics == PhysicsIdeal && s.Scheme == SchemeHPL &&
			len(s.RTNoise) == 0 && !s.Chaos.HPCMigration,
		slicePlus: hpc.Timeslice + sim.Duration(int64(sim.Second)/int64(s.HZ)),
	}
	r.acct.OnWait = r.checkWait
	return r
}

// armBound records that t became runnable behind `ahead` HPC tasks on its
// CPU; its next on-CPU latency must not exceed ahead*slicePlus.
func (r *recorder) armBound(t *task.Task, ahead int) {
	for len(r.bounds) <= t.ID {
		r.bounds = append(r.bounds, noBound)
	}
	r.bounds[t.ID] = sim.Duration(ahead) * r.slicePlus
}

// disarmBound forgets t's bound (migration moves it to a queue whose ahead
// count was not observed).
func (r *recorder) disarmBound(id int) {
	if id < len(r.bounds) {
		r.bounds[id] = noBound
	}
}

// hpcAhead counts the HPC tasks already committed to cpu: the queued ones
// plus a currently running one.
func (r *recorder) hpcAhead(cpu int) int {
	ahead := r.k.Sched.QueuedOf("hpc", cpu)
	if c := r.k.Sched.Curr(cpu); c != nil && c.Policy == task.HPC {
		ahead++
	}
	return ahead
}

// checkWait is the accounting ledger's OnWait hook: it fires when a task
// goes on CPU, with the runnable-wait it just served.
func (r *recorder) checkWait(now sim.Time, t *task.Task, cpu int, wait sim.Duration) {
	if !r.latOn || t.Policy != task.HPC || t.ID >= len(r.bounds) {
		return
	}
	b := r.bounds[t.ID]
	r.bounds[t.ID] = noBound
	if b >= 0 && wait > b {
		r.latViol = append(r.latViol, fmt.Sprintf(
			"t=%v cpu%d: HPC task %q waited %v for the CPU, bound %v", now, cpu, t.Name, wait, b))
	}
}

// observe folds every event dispatch into an FNV-style fingerprint. Two
// runs of the same scenario must produce the same stream bit for bit.
func (r *recorder) observe(at sim.Time, seq uint64) {
	r.hash = (r.hash ^ uint64(at)) * fnvPrime
	r.hash = (r.hash ^ seq) * fnvPrime
}

// Switch implements kernel.Tracer: the dominance probe. The class chain
// promises that no CFS task runs while an HPC task is runnable on the same
// CPU, so observing a Normal task switched in with a non-empty HPC queue is
// a scheduler bug, whatever the configuration.
func (r *recorder) Switch(now sim.Time, cpu int, prev, next *task.Task) {
	r.acct.Switch(now, cpu, prev, next)
	if r.latOn && prev.Policy == task.HPC && prev.State == task.Runnable {
		// prev was preempted and requeued: it is already counted in
		// QueuedOf, and next (just picked, off the queue) goes ahead of it
		// when it is also HPC.
		ahead := r.k.Sched.QueuedOf("hpc", cpu) - 1
		if next.Policy == task.HPC {
			ahead++
		}
		if ahead >= 0 {
			r.armBound(prev, ahead)
		}
	}
	if next.Policy != task.Normal {
		return
	}
	if n := r.k.Sched.QueuedOf("hpc", cpu); n > 0 {
		r.domViol = append(r.domViol, fmt.Sprintf(
			"t=%v cpu%d: CFS task %q switched in with %d HPC task(s) queued", now, cpu, next.Name, n))
	}
}

// Migrate implements kernel.Tracer: the fork-time-only probe. Under
// the HPL scheme an HPC task may migrate exactly once, at fork placement.
func (r *recorder) Migrate(now sim.Time, t *task.Task, from, to int, kind kernel.MigrateKind) {
	r.acct.Migrate(now, t, from, to, kind)
	r.disarmBound(t.ID)
	if t.Policy != task.HPC || r.scheme != SchemeHPL {
		return
	}
	if kind != kernel.MigrateFork {
		r.migViol = append(r.migViol, fmt.Sprintf(
			"t=%v: HPC task %q moved cpu%d->cpu%d by %v after placement", now, t.Name, from, to, kind))
		return
	}
	for len(r.forkMoves) <= t.ID {
		r.forkMoves = append(r.forkMoves, 0)
	}
	r.forkMoves[t.ID]++
	if r.forkMoves[t.ID] > 1 {
		r.migViol = append(r.migViol, fmt.Sprintf(
			"t=%v: HPC task %q fork-migrated %d times", now, t.Name, r.forkMoves[t.ID]))
	}
}

// Wake implements kernel.Tracer. The wake hook fires before the enqueue,
// so the queue census counts exactly the tasks ahead of t.
func (r *recorder) Wake(now sim.Time, t *task.Task, cpu int) {
	r.acct.Wake(now, t, cpu)
	if r.latOn && t.Policy == task.HPC {
		r.armBound(t, r.hpcAhead(cpu))
	}
}

// Mark implements kernel.Tracer.
func (r *recorder) Mark(now sim.Time, t *task.Task, label string) {
	r.acct.Mark(now, t, label)
}

// Fork implements kernel.Tracer; like Wake it fires pre-enqueue.
func (r *recorder) Fork(now sim.Time, t *task.Task, cpu int) {
	r.acct.Fork(now, t, cpu)
	if r.latOn && t.Policy == task.HPC {
		r.armBound(t, r.hpcAhead(cpu))
	}
}

// Exit implements kernel.Tracer.
func (r *recorder) Exit(now sim.Time, t *task.Task) {
	r.acct.Exit(now, t)
}

// kernelConfig maps a scenario onto a kernel configuration. Ideal physics
// zeroes every source of friction so the metamorphic oracles hold exactly;
// realistic physics keeps the kernel defaults.
func kernelConfig(s Scenario, rec *recorder) kernel.Config {
	cfg := kernel.Config{
		Topo:   s.Topo.Topology(),
		HZ:     s.HZ,
		Seed:   s.Seed,
		Tracer: rec,
		Chaos: sched.Chaos{
			HPCMigration: s.Chaos.HPCMigration,
			HPCNoRotate:  s.Chaos.HPCNoRotate,
		},
	}
	if s.Scheme == SchemeStandard {
		cfg.Balance = sched.BalanceStandard
	} else {
		cfg.Balance = sched.BalanceHPL
	}
	if s.Physics == PhysicsIdeal {
		cfg.NoOverheads = true
		cfg.SMTFactors = []float64{1, 1}
	}
	return cfg
}

// runOnce simulates the scenario with workload assign[slot] running in fork
// slot `slot` (nil means identity) and reports observables and violations.
func runOnce(s Scenario, assign []int) report { return runMode(s, assign, false) }

// runMode is runOnce with an explicit tick mode: fastForward selects the
// kernel's virtual-time fast-forward, which the equivalence oracle compares
// against the step-every-tick baseline.
func runMode(s Scenario, assign []int, fastForward bool) report {
	if assign == nil {
		assign = make([]int, len(s.Ranks))
		for i := range assign {
			assign[i] = i
		}
	}
	rec := newRecorder(s)
	cfg := kernelConfig(s, rec)
	cfg.FastForward = fastForward
	k := kernel.New(cfg)
	rec.k = k
	k.Eng.Observer = rec.observe

	for i, d := range s.Daemons {
		noise.DaemonSpec{
			Name:    fmt.Sprintf("daemon%d", i),
			Period:  d.Period,
			Service: d.Service,
		}.Spawn(k, k.RNG(0xda30+uint64(i)))
	}
	for i, rt := range s.RTNoise {
		noise.DaemonSpec{
			Name:     fmt.Sprintf("rtnoise%d", i),
			Policy:   task.FIFO,
			RTPrio:   rt.Prio,
			Period:   rt.Period,
			Service:  rt.Service,
			Affinity: topo.MaskOf(rt.CPU),
		}.Spawn(k, k.RNG(0xf1f0+uint64(i)))
	}

	tasks := make([]*task.Task, len(s.Ranks)) // indexed by workload
	var world *mpi.World
	if s.Barrier {
		world = mpi.NewWorld(k, mpi.Config{
			Ranks:         len(s.Ranks),
			Policy:        task.HPC,
			SpinThreshold: s.SpinThreshold,
		})
		k.Eng.After(s.LaunchAt, func() {
			world.Launch(nil, func(r *mpi.Rank) {
				runRankMPI(r, s.Ranks[assign[r.ID]].Phases)
			})
		})
	} else {
		for slot := range s.Ranks {
			slot := slot
			wl := assign[slot]
			k.Eng.After(s.Ranks[slot].Start, func() {
				tasks[wl] = k.Spawn(nil, kernel.Attr{
					Name:   fmt.Sprintf("rank%d", slot),
					Policy: task.HPC,
				}, func(p *kernel.Proc) {
					runRank(p, s.Ranks[wl].Phases)
				})
			})
		}
	}

	k.Run(sim.Time(0).Add(s.Horizon))
	end := k.Now()

	if world != nil {
		for slot, r := range world.Ranks {
			if r.P != nil {
				tasks[assign[slot]] = r.P.T
			}
		}
	}
	rep := report{
		eventHash: rec.hash,
		obs:       make([]rankObs, len(s.Ranks)),
		domViol:   rec.domViol,
		migViol:   rec.migViol,
		latViol:   rec.latViol,
		perf:      k.Perf,
	}
	for wl, t := range tasks {
		if t == nil {
			continue // never spawned within the horizon
		}
		o := rankObs{Busy: t.SumExec, Migrations: t.Counters.Migrations}
		if t.State == task.Dead {
			o.Completed = true
			o.Runtime = t.Exited.Sub(t.Spawned)
		} else {
			o.Runtime = end.Sub(t.Spawned)
		}
		rep.obs[wl] = o
	}
	return rep
}

// runRank drives an independent rank through its phases: compute, optional
// sleep, repeat, exit.
func runRank(p *kernel.Proc, phases []Phase) {
	var step func(pi, it int)
	step = func(pi, it int) {
		if pi == len(phases) {
			p.Exit()
			return
		}
		ph := phases[pi]
		npi, nit := pi, it+1
		if nit >= ph.Iters {
			npi, nit = pi+1, 0
		}
		p.Compute(ph.Compute, func() {
			if ph.Sleep > 0 {
				p.Sleep(ph.Sleep, func() { step(npi, nit) })
			} else {
				step(npi, nit)
			}
		})
	}
	step(0, 0)
}

// runRankMPI drives a barrier-coupled rank: compute, optional sleep,
// barrier, repeat, finish. Validation guarantees equal iteration counts
// across ranks, so every barrier releases.
func runRankMPI(r *mpi.Rank, phases []Phase) {
	var step func(pi, it int)
	step = func(pi, it int) {
		if pi == len(phases) {
			r.Finish()
			return
		}
		ph := phases[pi]
		npi, nit := pi, it+1
		if nit >= ph.Iters {
			npi, nit = pi+1, 0
		}
		r.Compute(ph.Compute, func() {
			arrive := func() { r.Barrier(func() { step(npi, nit) }) }
			if ph.Sleep > 0 {
				r.P.Sleep(ph.Sleep, arrive)
			} else {
				arrive()
			}
		})
	}
	step(0, 0)
}
