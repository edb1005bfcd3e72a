// Package sched implements the scheduler framework the paper builds on:
// an ordered chain of scheduling classes consulted by a scheduler core, with
// per-CPU runqueues, wakeup preemption across and within classes, and
// domain-based load balancing (periodic and idle-triggered).
//
// The class chain mirrors Section IV of the paper: Real-Time first, then the
// new HPC class, then CFS, then Idle. No task from a lower-priority class is
// ever picked while a higher-priority class has a runnable task on that CPU.
package sched

import (
	"fmt"
	"math/bits"

	"hplsim/internal/sim"
	"hplsim/internal/task"
	"hplsim/internal/topo"
)

// WakeKind tells Enqueue why a task is being added to a runqueue; classes
// use it to decide placement credit (e.g. CFS sleeper fairness).
type WakeKind int

const (
	// EnqueueWake: the task just woke from sleep.
	EnqueueWake WakeKind = iota
	// EnqueuePutPrev: the task was preempted and stays runnable.
	EnqueuePutPrev
	// EnqueueFork: the task was just created.
	EnqueueFork
	// EnqueueMove: the task is being migrated between CPUs.
	EnqueueMove
)

// Class is one scheduling class. All methods are called with the CPU's
// runqueue implicitly identified by the cpu argument; classes keep their
// own per-CPU state.
type Class interface {
	// Name is a short identifier for traces ("rt", "hpc", "cfs", "idle").
	Name() string
	// Handles reports whether the class schedules tasks of policy p.
	Handles(p task.Policy) bool
	// Enqueue adds t to the class runqueue of cpu.
	Enqueue(s *Scheduler, cpu int, t *task.Task, kind WakeKind)
	// Dequeue removes a queued task from the class runqueue of cpu.
	Dequeue(s *Scheduler, cpu int, t *task.Task)
	// PickNext removes and returns the next task to run on cpu, or nil
	// if the class has no runnable task there.
	PickNext(s *Scheduler, cpu int) *task.Task
	// ExecCharge accounts delta of CPU time consumed by the running task
	// t on cpu (vruntime for CFS, timeslice burn for RR-style classes).
	// The kernel calls it whenever it settles a run span.
	ExecCharge(s *Scheduler, cpu int, t *task.Task, delta sim.Duration)
	// Tick charges one scheduler tick to the running task t on cpu; the
	// class calls s.Resched(cpu) if t should yield.
	Tick(s *Scheduler, cpu int, t *task.Task)
	// CheckPreempt decides whether the newly woken task w should preempt
	// the running task curr, both of this class, on cpu.
	CheckPreempt(s *Scheduler, cpu int, curr, w *task.Task) bool
	// Queued reports the number of tasks queued (not running) on cpu.
	Queued(s *Scheduler, cpu int) int
	// StealFrom removes and returns one migratable queued task from
	// `from` destined for CPU `to`, or nil. Affinity must be respected.
	StealFrom(s *Scheduler, from, to int) *task.Task
	// SelectCPU chooses a CPU for a fork or wakeup. origin is the
	// parent's CPU (fork) or the task's previous CPU (wake).
	SelectCPU(s *Scheduler, t *task.Task, origin int, kind WakeKind) int
	// NextDecision reports a conservative lower bound on the earliest
	// future instant at which a timer tick could change a scheduling
	// decision for t, the task of this class currently running on cpu:
	// a Tick that calls Resched, or an ExecCharge crossing that does.
	// anchor is the instant from which t's current span accrues CPU time
	// (execution time observed by any tick at time x is at most
	// x - anchor, which is what makes a bound derived from remaining
	// timeslice or budget safe). Returning Infinity means no tick-driven
	// decision can ever occur in the current state. The kernel's
	// fast-forward mode elides ticks strictly before the bound, so
	// reporting a decision too early merely costs a harmless extra tick,
	// while reporting it too late is a correctness bug (the elided-tick
	// replay panics if a class decides during replay).
	NextDecision(s *Scheduler, cpu int, t *task.Task, anchor sim.Time) sim.Time
}

// Hooks are the kernel services the scheduler core needs. The kernel owns
// context-switch mechanics and time accounting; the scheduler only decides.
type Hooks interface {
	// Resched requests a reschedule of cpu at the current instant.
	Resched(cpu int)
	// Migrated notifies that a queued task moved between CPUs, so the
	// kernel can account the migration and adjust cache state.
	Migrated(t *task.Task, from, to int)
}

// TickBatcher is an optional extension of Class for the fast-forward mode:
// ReplayTicks applies the class-side bookkeeping of m consecutive elided
// ticks of t (the task running on cpu), each charging the same exec delta
// dt — bitwise identical to m repetitions of ExecCharge(dt) followed by
// Tick(). Implementations must return false when the current class state is
// not batchable (e.g. waiters are queued, so Tick is not a no-op); the
// kernel then falls back to replaying tick by tick. Implementations must
// never call Resched: batching is only attempted strictly before the
// class's own NextDecision bound, where a reschedule would contradict it.
type TickBatcher interface {
	ReplayTicks(s *Scheduler, cpu int, t *task.Task, dt sim.Duration, m int64) bool
}

// ReplayTicks forwards a batched elided-tick charge to t's class, if the
// class supports batching. It reports whether the charge was applied.
func (s *Scheduler) ReplayTicks(cpu int, t *task.Task, dt sim.Duration, m int64) bool {
	if tb, ok := s.ClassOf(t).(TickBatcher); ok {
		return tb.ReplayTicks(s, cpu, t, dt, m)
	}
	return false
}

// TickAdjuster is an optional extension of Hooks: implementations are told
// whenever an event may have moved a CPU's next tick-driven scheduling
// decision *earlier* — a task was enqueued on the CPU, or the dynamic
// balancing gate flipped. The kernel's fast-forward mode uses it to
// re-evaluate its coalesced timer arming; changes that can only push the
// decision later (dequeues, steals) are deliberately not reported, because
// a conservatively early timer is harmless.
type TickAdjuster interface {
	TickAdjust(cpu int)
}

// BalancePolicy selects the load-balancing behaviour of the whole node.
type BalancePolicy int

const (
	// BalanceStandard is vanilla Linux: every class balances, CPUs pull
	// on idle, periodic balancing corrects imbalance.
	BalanceStandard BalancePolicy = iota
	// BalanceHPL is the paper's policy: topology-aware placement at fork
	// time only; while any HPC task is alive, no dynamic balancing runs
	// for any class (Section V: "HPL performs no load balancing for any
	// scheduling class").
	BalanceHPL
	// BalanceHPLDynamic is ablation A1: the HPC class exists but dynamic
	// balancing stays enabled for all classes.
	BalanceHPLDynamic
	// BalanceNone disables all dynamic balancing unconditionally
	// (used by tests and the pinning ablation).
	BalanceNone
)

// Chaos bundles deliberate fault-injection switches used by the schedcheck
// property harness to prove its oracles can catch real policy bugs. All
// switches default to off; production configurations never set them.
type Chaos struct {
	// HPCMigration re-enables dynamic balancing and HPC-queue stealing
	// while HPC tasks are alive under BalanceHPL, breaking the paper's
	// fork-time-only placement guarantee on purpose.
	HPCMigration bool
	// HPCNoRotate makes the HPC class refill an expired timeslice without
	// rescheduling, so a queued HPC peer waits until the running task
	// blocks or exits. It breaks the round-robin wait bound the schedstat
	// latency oracle checks.
	HPCNoRotate bool
}

func (p BalancePolicy) String() string {
	switch p {
	case BalanceStandard:
		return "standard"
	case BalanceHPL:
		return "hpl"
	case BalanceHPLDynamic:
		return "hpl-dynamic"
	case BalanceNone:
		return "none"
	default:
		return fmt.Sprintf("BalancePolicy(%d)", int(p))
	}
}

// Scheduler is the scheduler core: the class chain plus per-CPU bookkeeping.
type Scheduler struct {
	Topo    topo.Topology
	classes []Class
	hooks   Hooks
	policy  BalancePolicy
	chaos   Chaos

	curr []*task.Task // running task per CPU (nil only before boot)

	// nrHPC counts live HPC-policy tasks system-wide; BalanceHPL
	// suppresses dynamic balancing while it is non-zero.
	nrHPC int

	// domains caches the per-CPU scheduling-domain chains.
	domains [][]topo.Domain

	// sibSpan and chipSpan cache per-CPU topology spans so hot wakeup
	// paths never rebuild masks.
	sibSpan  []topo.CPUMask
	chipSpan []topo.CPUMask

	// busy and queued are per-word CPU bitmaps kept in lockstep with the
	// runqueues: bit cpu of busy is set iff NrRunnable(cpu) >= 1, bit cpu
	// of queued iff NrQueued(cpu) >= 1. They are refreshed at every
	// queue or curr mutation (refreshCPU), which lets the balancer scan
	// only active CPUs instead of whole domain spans.
	busy   []uint64
	queued []uint64

	// naiveScan forces the pre-optimisation full-span linear scans, the
	// test reference for the bitmap scans.
	naiveScan bool

	// nextBalance is the per-CPU, per-domain-level next balance time.
	nextBalance [][]sim.Time
	// backoff is the per-CPU, per-domain balance interval multiplier.
	backoff [][]sim.Duration

	rng   *sim.RNG
	now   func() sim.Time
	timer func(sim.Duration, func())

	// tickAdjust is non-nil when Hooks also implements TickAdjuster.
	tickAdjust func(cpu int)

	stats Stats
}

// Config assembles a Scheduler.
type Config struct {
	Topo    topo.Topology
	Classes []Class // priority order, highest first; must end with idle
	Hooks   Hooks
	Policy  BalancePolicy
	RNG     *sim.RNG
	Now     func() sim.Time
	// Timer schedules fn to run after d (engine-backed); classes use it
	// for time-based state changes such as RT unthrottling.
	Timer func(d sim.Duration, fn func())
	// Chaos enables fault injection for the property harness.
	Chaos Chaos
	// NaiveScan disables the O(active-CPU) balancer scans in favour of
	// full-span iteration: the reference implementation tests compare the
	// optimised scans against.
	NaiveScan bool
}

// New builds a scheduler core from the class chain.
func New(cfg Config) *Scheduler {
	n := cfg.Topo.NumCPUs()
	s := &Scheduler{
		Topo:      cfg.Topo,
		classes:   cfg.Classes,
		hooks:     cfg.Hooks,
		policy:    cfg.Policy,
		chaos:     cfg.Chaos,
		curr:      make([]*task.Task, n),
		domains:   make([][]topo.Domain, n),
		sibSpan:   make([]topo.CPUMask, n),
		chipSpan:  make([]topo.CPUMask, n),
		busy:      make([]uint64, (n+63)/64),
		queued:    make([]uint64, (n+63)/64),
		naiveScan: cfg.NaiveScan,
		rng:       cfg.RNG,
		now:       cfg.Now,
		timer:     cfg.Timer,
	}
	if ta, ok := cfg.Hooks.(TickAdjuster); ok {
		s.tickAdjust = ta.TickAdjust
	}
	s.nextBalance = make([][]sim.Time, n)
	s.backoff = make([][]sim.Duration, n)
	for cpu := 0; cpu < n; cpu++ {
		s.domains[cpu] = cfg.Topo.Domains(cpu)
		s.sibSpan[cpu] = cfg.Topo.SiblingsOf(cpu)
		s.chipSpan[cpu] = cfg.Topo.ChipMask(cfg.Topo.ChipOf(cpu))
		s.nextBalance[cpu] = make([]sim.Time, len(s.domains[cpu]))
		s.backoff[cpu] = make([]sim.Duration, len(s.domains[cpu]))
		for i := range s.backoff[cpu] {
			s.backoff[cpu][i] = 1
		}
	}
	return s
}

// Now reports the current virtual time (for classes).
func (s *Scheduler) Now() sim.Time { return s.now() }

// RNG exposes the scheduler's random stream (for tie-breaking in classes).
func (s *Scheduler) RNG() *sim.RNG { return s.rng }

// Timer schedules fn after d on the simulation engine. It panics if the
// scheduler was built without a timer (class code that needs one must only
// run under a full kernel).
func (s *Scheduler) Timer(d sim.Duration, fn func()) {
	if s.timer == nil {
		panic("sched: no timer configured")
	}
	s.timer(d, fn)
}

// Policy reports the balance policy in force.
func (s *Scheduler) Policy() BalancePolicy { return s.policy }

// ChaosHPCMigration reports whether the HPC-migration fault injection is
// armed (see Chaos).
func (s *Scheduler) ChaosHPCMigration() bool { return s.chaos.HPCMigration }

// ChaosHPCNoRotate reports whether the rotation-suppression fault injection
// is armed (see Chaos).
func (s *Scheduler) ChaosHPCNoRotate() bool { return s.chaos.HPCNoRotate }

// Curr reports the task running on cpu (possibly the idle task).
func (s *Scheduler) Curr(cpu int) *task.Task { return s.curr[cpu] }

// SetCurr records that t is now running on cpu. The kernel calls this from
// its context-switch path.
func (s *Scheduler) SetCurr(cpu int, t *task.Task) {
	s.curr[cpu] = t
	s.refreshCPU(cpu)
}

// refreshCPU recomputes cpu's bits in the busy and queued bitmaps. Queued
// counts are O(1) per class, so recomputing on every mutation is cheap and
// immune to classes moving tasks internally (PickNext, StealFrom).
func (s *Scheduler) refreshCPU(cpu int) {
	w, bit := cpu>>6, uint64(1)<<uint(cpu&63)
	q := s.NrQueued(cpu)
	if q > 0 {
		s.queued[w] |= bit
	} else {
		s.queued[w] &^= bit
	}
	r := q
	if c := s.curr[cpu]; c != nil && c.Policy != task.Idle {
		r++
	}
	if r > 0 {
		s.busy[w] |= bit
	} else {
		s.busy[w] &^= bit
	}
}

// SiblingSpan reports the cached SMT-sibling mask of cpu (including cpu).
func (s *Scheduler) SiblingSpan(cpu int) topo.CPUMask { return s.sibSpan[cpu] }

// ChipSpan reports the cached mask of all CPUs on cpu's chip.
func (s *Scheduler) ChipSpan(cpu int) topo.CPUMask { return s.chipSpan[cpu] }

// FirstIdleIn returns the lowest-numbered CPU of span∩affinity with no
// runnable task (NrRunnable == 0), excluding exclude, or -1 if there is
// none. With the busy bitmap this is a word scan, independent of how many
// CPUs the span covers.
func (s *Scheduler) FirstIdleIn(span, affinity topo.CPUMask, exclude int) int {
	if s.naiveScan {
		found := -1
		span.ForEach(func(cpu int) {
			if found < 0 && cpu != exclude && affinity.Has(cpu) && s.NrRunnable(cpu) == 0 {
				found = cpu
			}
		})
		return found
	}
	for w, nw := 0, span.NumWords(); w < nw; w++ {
		v := span.Word(w) & affinity.Word(w) &^ s.busy[w]
		if w == exclude>>6 {
			v &^= 1 << uint(exclude&63)
		}
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// ClassOf returns the class handling the task's policy.
func (s *Scheduler) ClassOf(t *task.Task) Class {
	for _, c := range s.classes {
		if c.Handles(t.Policy) {
			return c
		}
	}
	panic(fmt.Sprintf("sched: no class handles policy %v", t.Policy))
}

// classIndex returns the priority rank of the class handling p (0 = highest).
func (s *Scheduler) classIndex(p task.Policy) int {
	for i, c := range s.classes {
		if c.Handles(p) {
			return i
		}
	}
	panic(fmt.Sprintf("sched: no class handles policy %v", p))
}

// TaskAlive accounts a new task of the given policy (fork or policy change).
func (s *Scheduler) TaskAlive(p task.Policy) {
	if p == task.HPC {
		was := s.balancingEnabled()
		s.nrHPC++
		if s.balancingEnabled() != was {
			s.tickAdjustAll()
		}
	}
}

// TaskGone accounts a task leaving the given policy (exit or policy change).
func (s *Scheduler) TaskGone(p task.Policy) {
	if p == task.HPC {
		was := s.balancingEnabled()
		s.nrHPC--
		if s.nrHPC < 0 {
			panic("sched: HPC task count underflow")
		}
		if s.balancingEnabled() != was {
			s.tickAdjustAll()
		}
	}
}

// tickAdjusted tells the kernel cpu's next tick-driven decision may have
// moved earlier (no-op unless the hooks implement TickAdjuster).
func (s *Scheduler) tickAdjusted(cpu int) {
	if s.tickAdjust != nil {
		s.tickAdjust(cpu)
	}
}

// tickAdjustAll reports a decision change affecting every CPU, e.g. the
// dynamic-balancing gate flipping with the HPC task count.
func (s *Scheduler) tickAdjustAll() {
	if s.tickAdjust == nil {
		return
	}
	for cpu := range s.curr {
		s.tickAdjust(cpu)
	}
}

// NrHPC reports the number of live HPC tasks.
func (s *Scheduler) NrHPC() int { return s.nrHPC }

// balancingEnabled reports whether dynamic balancing may run now.
func (s *Scheduler) balancingEnabled() bool {
	switch s.policy {
	case BalanceStandard, BalanceHPLDynamic:
		return true
	case BalanceHPL:
		return s.nrHPC == 0 || s.chaos.HPCMigration
	default:
		return false
	}
}

// Enqueue places a runnable task on cpu's runqueue and performs the wakeup
// preemption check against the running task.
func (s *Scheduler) Enqueue(cpu int, t *task.Task, kind WakeKind) {
	if t.OnRq {
		panic(fmt.Sprintf("sched: enqueue of already queued task %v", t))
	}
	c := s.ClassOf(t)
	c.Enqueue(s, cpu, t, kind)
	t.OnRq = true
	t.CPU = cpu
	s.refreshCPU(cpu)
	if kind == EnqueuePutPrev {
		return // the core is already rescheduling this CPU
	}
	s.checkPreemptWakeup(cpu, t)
	// A new queued task can only move the CPU's next tick-driven decision
	// earlier (an RR/HPC peer appearing starts the rotation clock, a CFS
	// waiter arms the fairness checks).
	s.tickAdjusted(cpu)
}

// Dequeue removes a queued task from its runqueue (sleep, exit, migration).
func (s *Scheduler) Dequeue(t *task.Task) {
	if !t.OnRq {
		panic(fmt.Sprintf("sched: dequeue of unqueued task %v", t))
	}
	s.ClassOf(t).Dequeue(s, t.CPU, t)
	t.OnRq = false
	s.refreshCPU(t.CPU)
}

// checkPreemptWakeup decides whether the wakeup of t on cpu should preempt
// the task currently running there.
func (s *Scheduler) checkPreemptWakeup(cpu int, t *task.Task) {
	curr := s.curr[cpu]
	if curr == nil {
		s.hooks.Resched(cpu)
		return
	}
	ci, ti := s.classIndex(curr.Policy), s.classIndex(t.Policy)
	switch {
	case ti < ci:
		// Higher-priority class always preempts: the ordering of the
		// scheduling classes is an implicit prioritisation.
		if curr.Policy != task.Idle {
			s.stats.WakePreempts++
		}
		s.hooks.Resched(cpu)
	case ti == ci:
		if s.classes[ti].CheckPreempt(s, cpu, curr, t) {
			s.stats.WakePreempts++
			s.hooks.Resched(cpu)
		}
	}
}

// PickNext selects, removes from its queue, and returns the highest priority
// runnable task on cpu. The idle class guarantees a non-nil result.
func (s *Scheduler) PickNext(cpu int) *task.Task {
	for _, c := range s.classes {
		if t := c.PickNext(s, cpu); t != nil {
			t.OnRq = false
			s.refreshCPU(cpu)
			return t
		}
	}
	panic("sched: idle class returned no task")
}

// PutPrev re-queues a still-runnable task that is being switched out.
func (s *Scheduler) PutPrev(cpu int, t *task.Task) {
	s.Enqueue(cpu, t, EnqueuePutPrev)
}

// Tick charges a scheduler tick to the running task.
func (s *Scheduler) Tick(cpu int, t *task.Task) {
	s.ClassOf(t).Tick(s, cpu, t)
}

// ExecCharge accounts CPU time consumed by the running task on cpu.
func (s *Scheduler) ExecCharge(cpu int, t *task.Task, delta sim.Duration) {
	s.ClassOf(t).ExecCharge(s, cpu, t, delta)
}

// Resched forwards a class's reschedule request to the kernel.
func (s *Scheduler) Resched(cpu int) { s.hooks.Resched(cpu) }

// NrQueued reports the number of queued (runnable, not running) tasks on
// cpu across all classes.
func (s *Scheduler) NrQueued(cpu int) int {
	n := 0
	for _, c := range s.classes {
		n += c.Queued(s, cpu)
	}
	return n
}

// QueuedOf reports the number of tasks queued (runnable, not running) on
// cpu in the class with the given name, or 0 if no class has that name.
// Oracle probes use it to check class-priority dominance at switch-in.
func (s *Scheduler) QueuedOf(name string, cpu int) int {
	for _, c := range s.classes {
		if c.Name() == name {
			return c.Queued(s, cpu)
		}
	}
	return 0
}

// NrRunnable reports queued tasks plus the running task (0 for idle).
func (s *Scheduler) NrRunnable(cpu int) int {
	n := s.NrQueued(cpu)
	if c := s.curr[cpu]; c != nil && c.Policy != task.Idle {
		n++
	}
	return n
}

// NextDecision reports the class-level lower bound on the next instant a
// timer tick could change a scheduling decision for t, the task running on
// cpu. anchor is the start of t's current accounting span. See
// Class.NextDecision for the contract.
func (s *Scheduler) NextDecision(cpu int, t *task.Task, anchor sim.Time) sim.Time {
	return s.ClassOf(t).NextDecision(s, cpu, t, anchor)
}

// NextBalanceDue reports the earliest instant at which a timer tick on cpu
// would run a periodic-balance pass that touches state (including its RNG
// draws): the minimum of the CPU's per-domain next-balance deadlines, or
// Infinity while dynamic balancing is gated off. Ticks strictly before the
// returned time leave PeriodicBalance a provable no-op, which is what lets
// the fast-forward mode elide them.
func (s *Scheduler) NextBalanceDue(cpu int) sim.Time {
	if !s.balancingEnabled() {
		return sim.Infinity
	}
	due := sim.Infinity
	for _, nb := range s.nextBalance[cpu] {
		if nb < due {
			due = nb
		}
	}
	return due
}

// SelectCPU chooses the CPU for a fork or wakeup of t.
func (s *Scheduler) SelectCPU(t *task.Task, origin int, kind WakeKind) int {
	cpu := s.ClassOf(t).SelectCPU(s, t, origin, kind)
	if !t.Affinity.Has(cpu) {
		// Class returned a CPU outside the affinity mask; fall back to
		// the first allowed CPU.
		cpu = t.Affinity.First()
		if cpu < 0 {
			panic(fmt.Sprintf("sched: task %v has empty affinity", t))
		}
	}
	return cpu
}
