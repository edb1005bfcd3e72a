package kernel

import (
	"math"
	"math/bits"

	"hplsim/internal/invariant"
	"hplsim/internal/sim"
	"hplsim/internal/task"
)

// resched requests a scheduling pass on cpu at the current instant. Multiple
// requests within one instant coalesce into a single pass.
func (k *Kernel) resched(cpu int) {
	if k.replaying {
		// An elided tick asked to reschedule: its NextDecision bound was
		// too late. Diverging silently would be far worse than crashing.
		panic("kernel: reschedule during fast-forward tick replay (NextDecision bound too late)")
	}
	c := k.cpus[cpu]
	if c.reschedPending {
		return
	}
	c.reschedPending = true
	k.Eng.At(k.Eng.Now(), func() {
		c.reschedPending = false
		k.schedule(c)
	})
}

// tickPeriod is the timer interrupt interval.
func (k *Kernel) tickPeriod() sim.Duration {
	return sim.Duration(int64(sim.Second) / int64(k.Cfg.HZ))
}

// tickPeriodFor reports the period a tick on c firing at the current
// kernel time would choose for its successor. With AdaptiveTick, an HPC
// task running alone on its CPU only gets a 10 Hz housekeeping tick — the
// NETTICK optimisation that removes most of the timer micro-noise while
// the scheduler has nothing to decide. The inputs (current task, queue
// occupancy) change only at events, so between two events the period is
// constant — which is what lets armLane enumerate the elided tick grid.
func (k *Kernel) tickPeriodFor(c *cpuState) sim.Duration {
	period := k.tickPeriod()
	if k.Cfg.AdaptiveTick && c.curr != c.idle &&
		c.curr.Policy == task.HPC && k.Sched.NrQueued(c.id) == 0 {
		housekeeping := 100 * sim.Millisecond
		if housekeeping > period {
			period = housekeeping
		}
	}
	return period
}

// armTick starts the periodic tick on a busy CPU (no-op if already armed).
func (k *Kernel) armTick(c *cpuState) {
	if c.tickNext != 0 {
		return
	}
	c.tickNext = k.now().Add(k.tickPeriodFor(c))
	k.ticking[c.id>>6] |= 1 << uint(c.id&63)
	k.armLane(c)
}

func (k *Kernel) cancelTick(c *cpuState) {
	k.Eng.DisarmLane(c.lane)
	c.tickNext = 0
	k.ticking[c.id>>6] &^= 1 << uint(c.id&63)
}

// armLane points c's timer lane at the next tick that must actually be
// dispatched: every grid instant in standard mode; in fast-forward mode the
// first grid instant at or after the earliest possible scheduling decision
// (class NextDecision bound or periodic-balance deadline). Grid instants
// before that are quiescent by construction and are replayed on demand.
// Rounding the decision bound up to the grid is exact, not a heuristic: a
// decision manifests only when a tick fires, and no tick exists between
// grid instants.
func (k *Kernel) armLane(c *cpuState) {
	if !k.ff {
		k.Eng.ArmLane(c.lane, c.tickNext)
		return
	}
	d := k.Sched.NextDecision(c.id, c.curr, c.spanStart)
	if due := k.Sched.NextBalanceDue(c.id); due < d {
		d = due
	}
	if d == sim.Infinity {
		// No tick before the next external event can decide anything.
		// Leave the lane disarmed; the elided instants are replayed
		// lazily when the next event (or run horizon) needs them.
		k.Eng.DisarmLane(c.lane)
		return
	}
	target := c.tickNext
	if d > c.spanStart && d > target {
		// A future bound: accrual is measured from the anchor, so no tick
		// before d can see the condition true; skip to the first grid
		// instant at or after d. A bound at or before the anchor means the
		// condition already holds — the very next grid tick decides, even
		// when switch/tick dead time has pushed the anchor past it.
		p := k.tickPeriodFor(c)
		n := (d.Sub(target) + p - 1) / p
		target = target.Add(n * p)
	}
	k.Eng.ArmLane(c.lane, target)
}

// tickAdjust re-aims cpu's timer lane after something moved its next
// scheduling decision (possibly earlier): a task was enqueued there, the
// balancing gate flipped, or a scheduling pass completed. The tick grid
// itself never moves — only which grid instant is dispatched live.
func (k *Kernel) tickAdjust(cpu int) {
	if !k.ff || k.replaying {
		return
	}
	c := k.cpus[cpu]
	if c.tickNext == 0 {
		return
	}
	k.armLane(c)
}

// tickFire is the timer interrupt handler: account the elapsed span, steal
// the tick cost from the running task, drive the class tick (timeslice and
// fairness preemption) and the periodic load balancer, and re-arm. It runs
// on the CPU's timer lane, so it consumes no event sequence number and
// fires ahead of any heap event at the same instant — identically in both
// tick modes, which is what keeps their dispatch fingerprints comparable.
func (k *Kernel) tickFire(c *cpuState) {
	if c.tickNext == 0 {
		return // raced with idling (defensive; cancelTick disarms the lane)
	}
	now := k.Eng.Now()
	if k.ff {
		// Settle every CPU's elided ticks first. Same-instant ticks of
		// lower-numbered CPUs precede this one (the engine fired their
		// lanes first if armed; replay must respect the same order).
		k.catchUp(now, c.id)
		if c.tickNext != now {
			panic("kernel: fast-forward lane fired off the tick grid")
		}
	}
	if c.curr == c.idle {
		return // raced with idling; stay tickless
	}
	c.ticks++
	k.Perf.Ticks++
	k.syncProgress(c)
	// The interrupt itself steals CPU time: the paper's "micro noise".
	c.spanStart = c.spanStart.Add(k.Cfg.TickCost)
	if c.completion.Pending() {
		k.Eng.Shift(c.completion, c.completion.When().Add(k.Cfg.TickCost))
	}
	k.Sched.Tick(c.id, c.curr)
	k.Sched.PeriodicBalance(c.id)
	c.tickNext = now.Add(k.tickPeriodFor(c))
	k.armLane(c)
	if invariant.Enabled {
		k.checkInvariants()
	}
}

// replayTick re-runs the bookkeeping of one elided tick of c exactly as
// tickFire would have at that instant: same counters, same accounting
// arithmetic in the same order, same class tick (slice refills and throttle
// charging included). What it skips is exactly what cannot matter there —
// the event dispatch (lane firings consume no sequence numbers in either
// mode) and PeriodicBalance (a provable no-op before NextBalanceDue, which
// bounds the lane arming). It returns the tick-cost theft; the caller
// batches the seq-preserving completion Shift, which is associative in the
// event's integer timestamp.
func (k *Kernel) replayTick(c *cpuState) sim.Duration {
	at := c.tickNext
	k.replaying, k.vnow = true, at
	c.ticks++
	k.Perf.Ticks++
	k.Perf.TicksCoalesced++
	k.syncProgress(c)
	c.spanStart = c.spanStart.Add(k.Cfg.TickCost)
	k.Sched.Tick(c.id, c.curr)
	c.tickNext = at.Add(k.tickPeriodFor(c))
	k.replaying = false
	return k.Cfg.TickCost
}

// replayBatch settles m consecutive elided ticks of c in one pass, bitwise
// identical to m calls of replayTick. It requires the steady state where
// every tick in the run sees the same inputs — the span exactly one period
// behind, so each tick charges dt = period - TickCost — and a class that can
// batch its charge (sched.TickBatcher). Everything integer (exec time, core
// busy, counters, the class charge) collapses in closed form; the
// non-associative float recurrences (cache warmth, work drain) keep their
// per-tick loop, but with the per-batch constants hoisted: the exponential
// depends only on dt, so each elided tick costs a handful of float ops and
// none of the per-tick call machinery. The loop bodies mirror the exact
// expression shapes of cache.Progress and syncProgress.
func (k *Kernel) replayBatch(c *cpuState, m int64) bool {
	t := c.curr
	p := k.tickPeriodFor(c)
	dt := p - k.Cfg.TickCost
	if dt <= 0 || c.tickNext.Sub(c.spanStart) != dt {
		return false
	}
	if !k.Sched.ReplayTicks(c.id, t, dt, m) {
		return false
	}
	c.ticks += uint64(m)
	k.Perf.Ticks += uint64(m)
	k.Perf.TicksCoalesced += uint64(m)
	span := sim.Duration(m) * dt
	t.SumExec += span
	k.cores[k.Topo.CoreOf(c.id)].busy += span
	fdt := float64(dt)
	tau := float64(k.Cfg.Cache.WarmTau)
	e := math.Exp(-fdt / tau)
	oneMinusE := 1 - e
	smt := k.smtFactor(c.id)
	w, sens := t.Cache.Warmth, t.Sensitivity
	drain := t.HasWork()
	for i := int64(0); i < m; i++ {
		if drain && t.Work > 0 {
			lost := sens * (1 - w) * tau * oneMinusE
			t.Work -= (fdt - lost) * smt
			if t.Work < 0 {
				t.Work = 0
			}
		}
		w = 1 - (1-w)*e
	}
	t.Cache.Warmth = w
	c.tickNext = c.tickNext.Add(sim.Duration(m) * p)
	c.spanStart = c.tickNext.Add(-dt) // one period behind again, cost charged
	return true
}

// catchUp replays every CPU's elided ticks up to `at`. Ticks exactly at
// `at` are included only for CPUs below tieID: a heap event at an instant
// runs after all of that instant's lane firings (tieID = NumCPUs), while a
// live tick on CPU i runs after same-instant ticks of lower-numbered CPUs
// only (tieID = i), matching the engine's lowest-lane-first tie-break.
// Replaying per-CPU rather than globally time-sorted is exact because
// elided ticks commute across CPUs: each touches only its own CPU's
// scheduling state plus order-insensitive sums (core busy time, counters).
// Each stretch batches through replayBatch where the steady state allows
// and falls back to tick-by-tick replay otherwise (typically just the
// first tick after an event, which realigns the span to the grid).
func (k *Kernel) catchUp(at sim.Time, tieID int) {
	if k.Cfg.Naive {
		for _, c := range k.cpus {
			if c.tickNext == 0 {
				continue
			}
			k.catchUpCPU(c, at, tieID)
		}
		return
	}
	// Walk only CPUs with a live tick grid. Replay never arms or cancels
	// ticks (Resched and timers panic during replay), so the bitmap is
	// stable while we iterate; the ascending bit order matches the
	// ascending k.cpus order of the full loop, and the skipped CPUs are
	// exactly those the full loop would have `continue`d over.
	for w, word := range k.ticking {
		for v := word; v != 0; v &= v - 1 {
			k.catchUpCPU(k.cpus[w*64+bits.TrailingZeros64(v)], at, tieID)
		}
	}
}

// catchUpCPU replays one CPU's elided ticks up to `at` (see catchUp for the
// tie rules).
func (k *Kernel) catchUpCPU(c *cpuState, at sim.Time, tieID int) {
	var theft sim.Duration
	for c.tickNext < at || (c.tickNext == at && c.id < tieID) {
		bound := at
		if c.id >= tieID {
			bound-- // ticks strictly before the event instant
		}
		m := int64(bound.Sub(c.tickNext))/int64(k.tickPeriodFor(c)) + 1
		if k.replayBatch(c, m) {
			theft += sim.Duration(m) * k.Cfg.TickCost
			continue
		}
		theft += k.replayTick(c)
	}
	if theft > 0 && c.completion.Pending() {
		k.Eng.Shift(c.completion, c.completion.When().Add(theft))
	}
}

// beforeEvent is the engine hook in fast-forward mode: before any heap
// event dispatches, settle all elided ticks at or before its instant so
// the event observes exactly the state a step-every-tick run would have
// produced. Replay never schedules, so the hook is idempotent at a given
// instant; its only engine mutations (completion shifts) target times at
// or after the event, as the hook contract requires.
func (k *Kernel) beforeEvent(at sim.Time) {
	k.catchUp(at, len(k.cpus))
}

// smtFactor reports the throughput factor of cpu given how many of its SMT
// siblings are currently busy. Sibling CPU numbers are contiguous, so the
// hottest accounting path iterates a plain integer range instead of
// materialising a mask.
func (k *Kernel) smtFactor(cpu int) float64 {
	busy := 0
	base := k.Topo.CoreOf(cpu) * k.Topo.ThreadsPerCore
	for sib := base; sib < base+k.Topo.ThreadsPerCore; sib++ {
		if sib != cpu && !k.IdleOn(sib) {
			busy++
		}
	}
	f := k.Cfg.SMTFactors
	if busy >= len(f) {
		busy = len(f) - 1
	}
	return f[busy]
}

// syncProgress settles the running span of c.curr up to now: work done,
// cache warmth, CPU-time accounting, and the class exec charge.
func (k *Kernel) syncProgress(c *cpuState) {
	t := c.curr
	if t == c.idle {
		return
	}
	now := k.now() // the replayed tick instant during elided-tick replay
	if now <= c.spanStart {
		return // span has not started yet (switch/tick cost dead time)
	}
	dt := now.Sub(c.spanStart)
	c.spanStart = now

	work, w1 := k.Cfg.Cache.Progress(dt, t.Cache.Warmth, t.Sensitivity)
	work *= k.smtFactor(c.id)
	t.Cache.Warmth = w1
	t.SumExec += dt
	k.cores[k.Topo.CoreOf(c.id)].busy += dt
	k.Sched.ExecCharge(c.id, t, dt)

	if t.HasWork() {
		t.Work -= work
		if t.Work < 0 {
			t.Work = 0
		}
	}
}

// advance runs pending zero-work continuations of c.curr and then projects
// the completion of whatever work they installed.
func (k *Kernel) advance(c *cpuState) {
	k.runSteps(c)
	k.project(c)
}

// project (re)schedules the completion event for c.curr's pending work.
func (k *Kernel) project(c *cpuState) {
	k.Eng.Cancel(c.completion)
	c.completion = sim.EventRef{}
	t := c.curr
	if t == c.idle || t.State != task.Running {
		return
	}
	if t.Spinning() || t.Work <= 0 {
		return // busy-wait or await-continuation: no completion event
	}
	smt := k.smtFactor(c.id)
	dt := k.Cfg.Cache.FinishTime(t.Work/smt, t.Cache.Warmth, t.Sensitivity)
	at := c.spanStart.Add(dt)
	if at < k.Eng.Now() {
		at = k.Eng.Now()
	}
	c.completion = k.Eng.At(at, func() {
		c.completion = sim.EventRef{}
		k.workDone(c, t)
	})
}

// workDone fires when the projected completion of t arrives: settle the
// span and run the task's continuation (or re-project numerical residue).
func (k *Kernel) workDone(c *cpuState, t *task.Task) {
	if c.curr != t {
		return // raced with a switch; the new projection owns the task
	}
	k.syncProgress(c)
	if t.Work > 1000 { // > 1us of genuine work left: re-project
		k.project(c)
		return
	}
	t.Work = 0
	k.advance(c)
}

// runSteps executes pending zero-work continuations of the running task.
// A continuation typically installs the next compute step, blocks, spins,
// or exits; the loop ends as soon as any of those happen. Continuations may
// re-enter the kernel (SetStep, barrier releases), so the loop guards
// against reentrancy.
func (k *Kernel) runSteps(c *cpuState) {
	if c.inSteps {
		return
	}
	c.inSteps = true
	defer func() { c.inSteps = false }()
	t := c.curr
	for t.State == task.Running && t.Work == 0 && t.OnDone != nil {
		fn := t.OnDone
		t.OnDone = nil
		fn()
		if c.curr != t {
			return
		}
	}
}

// schedule is the core reschedule pass for one CPU, the analogue of
// __schedule(): settle the current span, requeue a still-runnable previous
// task, pick the next task through the class chain (pulling work if the CPU
// would otherwise idle), then context-switch.
func (k *Kernel) schedule(c *cpuState) {
	now := k.Eng.Now()
	prev := c.curr

	k.syncProgress(c)
	k.Eng.Cancel(c.completion)
	c.completion = sim.EventRef{}

	// Requeue prev if it is still runnable (involuntary switch path).
	if prev != c.idle && prev.State == task.Running {
		prev.State = task.Runnable
		k.Sched.PutPrev(c.id, prev)
		if !prev.Affinity.Has(c.id) {
			// An affinity change evicted prev from this CPU: the
			// migration-thread path of sched_setaffinity.
			k.Sched.MoveQueued(prev, prev.Affinity.First())
		}
	}

	pick := k.Sched.PickNext(c.id)
	if pick == c.idle && k.Sched.IdleBalance(c.id) {
		// Pulled a task from a busier CPU rather than idling.
		pick = k.Sched.PickNext(c.id)
	}

	if pick == prev {
		// No switch: restore and resume.
		pick.State = task.Running
		k.advance(c)
		k.tickAdjust(c.id)
		if invariant.Enabled {
			k.checkInvariants()
		}
		return
	}

	// A real context switch.
	k.Perf.ContextSwitches++
	if prev != c.idle {
		if prev.State == task.Runnable {
			k.Perf.InvoluntarySwitches++
			prev.Counters.NIVCSw++
		} else {
			k.Perf.VoluntarySwitches++
			prev.Counters.NVCSw++
		}
		prev.Cache.BusySnapshot = k.cores[k.Topo.CoreOf(c.id)].busy
		prev.LastRan = now
	}
	if k.Cfg.Tracer != nil {
		k.Cfg.Tracer.Switch(now, c.id, prev, pick)
	}

	wasIdle := prev == c.idle
	goesIdle := pick == c.idle
	if wasIdle != goesIdle {
		// The core's SMT occupancy changes: settle sibling spans under
		// the old rate before the transition takes effect, and account
		// the occupancy interval for the energy model.
		k.syncSiblings(c.id)
		k.cpuBusyChanged(c.id, wasIdle)
	}

	c.curr = pick
	k.Sched.SetCurr(c.id, pick)
	if !goesIdle {
		pick.State = task.Running
		pick.CPU = c.id
		core := k.Topo.CoreOf(c.id)
		if pick.Cache.Core != core {
			// Cross-core migration: cold caches.
			pick.Cache.Warmth = 0
			pick.Cache.Core = core
		} else {
			exposure := k.cores[core].busy - pick.Cache.BusySnapshot
			pick.Cache.Warmth = k.Cfg.Cache.Evict(pick.Cache.Warmth, exposure)
		}
		c.spanStart = now.Add(k.Cfg.SwitchCost)
		k.armTick(c)
	} else {
		c.spanStart = now
		k.cancelTick(c)
	}

	if wasIdle != goesIdle {
		k.reprojectSiblings(c.id)
	}
	k.advance(c)
	k.tickAdjust(c.id)
	if invariant.Enabled {
		k.checkInvariants()
	}
}

// StealTime models hardware-interrupt context on cpu: `d` of CPU time
// vanishes from whatever is running there, with no scheduler involvement
// and no context switch — the class-independent noise component that even
// HPL cannot deflect (it only reorders runnable tasks). Idle CPUs absorb
// interrupts for free.
func (k *Kernel) StealTime(cpu int, d sim.Duration) {
	c := k.cpus[cpu]
	if c.curr == c.idle || d <= 0 {
		return
	}
	k.syncProgress(c)
	c.spanStart = c.spanStart.Add(d)
	if c.completion.Pending() {
		// Shift, not Reschedule: the interrupt displaces the projected
		// completion without changing its identity or FIFO rank.
		k.Eng.Shift(c.completion, c.completion.When().Add(d))
	}
	k.checkInvariants()
}

// syncSiblings settles the running spans of the busy SMT siblings of cpu
// (their throughput is about to change).
func (k *Kernel) syncSiblings(cpu int) {
	base := k.Topo.CoreOf(cpu) * k.Topo.ThreadsPerCore
	for sib := base; sib < base+k.Topo.ThreadsPerCore; sib++ {
		if sib == cpu {
			continue
		}
		sc := k.cpus[sib]
		if sc.curr != sc.idle {
			k.syncProgress(sc)
		}
	}
}

// reprojectSiblings recomputes the completion events of busy SMT siblings
// after an occupancy change.
func (k *Kernel) reprojectSiblings(cpu int) {
	base := k.Topo.CoreOf(cpu) * k.Topo.ThreadsPerCore
	for sib := base; sib < base+k.Topo.ThreadsPerCore; sib++ {
		if sib == cpu {
			continue
		}
		sc := k.cpus[sib]
		if sc.curr == sc.idle {
			continue
		}
		k.project(sc)
	}
}
