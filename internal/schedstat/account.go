package schedstat

import (
	"fmt"
	"strings"

	"hplsim/internal/kernel"
	"hplsim/internal/sched"
	"hplsim/internal/sim"
	"hplsim/internal/stats"
	"hplsim/internal/task"
)

// unset marks an interval anchor with no interval in flight.
const unset = sim.Time(-1)

// Wait-latency histogram shape: 4ms bins over [0, 200ms). 200ms covers the
// HPC timeslice (100ms) plus generous tick slack; longer waits land in the
// overflow count.
const (
	waitHistHiMs = 200.0
	waitHistBins = 50
)

// TaskStats is the per-task ledger, the simulator's /proc/<pid>/schedstat:
// where the task's wall-clock went, split by scheduler-visible cause.
type TaskStats struct {
	ID    int
	Name  string
	Class int // sched.Class* bucket of the last observed policy

	Run     sim.Duration // on-CPU, switch-in to switch-out
	Wait    sim.Duration // runnable-wait: fork/wake/preempt to switch-in
	Block   sim.Duration // asleep: blocking switch-out to wake
	WaitMax sim.Duration // worst single runnable-wait

	Slices     uint64 // switch-ins
	Preempt    uint64 // involuntary switch-outs (still runnable)
	Yields     uint64 // voluntary switch-outs (blocked)
	Wakeups    uint64
	Migrations uint64
	Dead       bool

	waitSince  sim.Time
	blockSince sim.Time
	onSince    sim.Time
}

// CPUStats is the per-CPU ledger: occupancy split by scheduling class.
type CPUStats struct {
	CPU       int
	Switches  uint64
	ClassTime [sched.NumClasses]sim.Duration

	currClass int
	since     sim.Time
	currID    int
}

// Busy reports non-idle occupancy.
func (c *CPUStats) Busy() sim.Duration {
	var busy sim.Duration
	for i, d := range c.ClassTime {
		if i != sched.ClassIdle {
			busy += d
		}
	}
	return busy
}

// Accounting threads per-task and per-CPU schedstat accounting through the
// kernel tracer hooks. It implements kernel.Tracer; attach it as
// Config.Tracer (or feed it a recorded event stream via Replay) and call
// Finish after the run.
type Accounting struct {
	Tasks []*TaskStats // dense, indexed by task ID; nil where never observed
	CPUs  []*CPUStats  // dense, indexed by CPU id

	// WaitHist is the all-class runnable-wait latency histogram, in
	// milliseconds; ClassWait splits it by scheduling class.
	WaitHist  *stats.Histogram
	ClassWait [sched.NumClasses]*stats.Histogram

	// OnWait, if non-nil, is called at every switch-in that closes a
	// runnable-wait interval, with the measured wait. The schedcheck
	// latency oracle hangs off this hook.
	OnWait func(now sim.Time, t *task.Task, cpu int, wait sim.Duration)

	last sim.Time
	done bool
}

// NewAccounting returns an empty ledger.
func NewAccounting() *Accounting {
	a := &Accounting{WaitHist: stats.NewHistogram(0, waitHistHiMs, waitHistBins)}
	for i := range a.ClassWait {
		a.ClassWait[i] = stats.NewHistogram(0, waitHistHiMs, waitHistBins)
	}
	return a
}

func (a *Accounting) touch(now sim.Time) {
	if now > a.last {
		a.last = now
	}
}

func (a *Accounting) taskOf(t *task.Task) *TaskStats {
	for len(a.Tasks) <= t.ID {
		a.Tasks = append(a.Tasks, nil)
	}
	ts := a.Tasks[t.ID]
	if ts == nil {
		ts = &TaskStats{ID: t.ID, Name: t.Name,
			waitSince: unset, blockSince: unset, onSince: unset}
		a.Tasks[t.ID] = ts
	}
	ts.Class = sched.ClassIndexFor(t.Policy) // follows sched_setscheduler
	return ts
}

func (a *Accounting) cpuOf(cpu int) *CPUStats {
	for len(a.CPUs) <= cpu {
		a.CPUs = append(a.CPUs, nil)
	}
	c := a.CPUs[cpu]
	if c == nil {
		// Before its first switch a CPU has idled since boot.
		c = &CPUStats{CPU: cpu, currClass: sched.ClassIdle}
		a.CPUs[cpu] = c
	}
	return c
}

// Switch implements kernel.Tracer. prev.State at this instant tells the
// cause of the switch-out: Runnable means preempted (the wait clock starts
// again immediately), Sleeping means blocked, Dead means exited.
func (a *Accounting) Switch(now sim.Time, cpu int, prev, next *task.Task) {
	a.touch(now)
	c := a.cpuOf(cpu)
	c.Switches++
	c.ClassTime[c.currClass] += now.Sub(c.since)
	c.currClass = sched.ClassIndexFor(next.Policy)
	c.currID = next.ID
	c.since = now

	if prev.Policy != task.Idle {
		pt := a.taskOf(prev)
		if pt.onSince != unset {
			pt.Run += now.Sub(pt.onSince)
			pt.onSince = unset
		}
		switch prev.State {
		case task.Runnable:
			pt.Preempt++
			pt.waitSince = now
		case task.Sleeping:
			pt.Yields++
			pt.blockSince = now
		case task.Dead:
			pt.Dead = true
		}
	}
	if next.Policy != task.Idle {
		nt := a.taskOf(next)
		nt.Slices++
		if nt.waitSince != unset {
			wait := now.Sub(nt.waitSince)
			nt.waitSince = unset
			nt.Wait += wait
			if wait > nt.WaitMax {
				nt.WaitMax = wait
			}
			ms := float64(wait) / 1e6
			a.WaitHist.Add(ms)
			a.ClassWait[nt.Class].Add(ms)
			if a.OnWait != nil {
				a.OnWait(now, next, cpu, wait)
			}
		}
		nt.onSince = now
	}
}

// Wake implements kernel.Tracer: close the block interval, open the wait
// interval. A task whose spin window expired while queued (BlockQueued)
// re-arms its wait clock here, discarding the stale anchor.
func (a *Accounting) Wake(now sim.Time, t *task.Task, cpu int) {
	a.touch(now)
	tt := a.taskOf(t)
	tt.Wakeups++
	if tt.blockSince != unset {
		tt.Block += now.Sub(tt.blockSince)
		tt.blockSince = unset
	}
	tt.waitSince = now
}

// Fork implements kernel.Tracer: a fork-time enqueue opens the task's
// first wait interval.
func (a *Accounting) Fork(now sim.Time, t *task.Task, cpu int) {
	a.touch(now)
	a.taskOf(t).waitSince = now
}

// Exit implements kernel.Tracer. The final run span is settled by the
// context switch that follows at the same instant.
func (a *Accounting) Exit(now sim.Time, t *task.Task) {
	a.touch(now)
	a.taskOf(t).Dead = true
}

// Migrate implements kernel.Tracer.
func (a *Accounting) Migrate(now sim.Time, t *task.Task, from, to int, kind kernel.MigrateKind) {
	a.touch(now)
	a.taskOf(t).Migrations++
}

// Mark implements kernel.Tracer.
func (a *Accounting) Mark(now sim.Time, t *task.Task, label string) {}

// Replay feeds a recorded event stream through the ledger, so trace files
// written earlier can be tabulated offline (cmd/tracer stat reads a run
// live, but diffing pipelines tabulate from disk). Lifecycle context the
// live hooks read from *task.Task is reconstructed from the canonical
// fields.
func (a *Accounting) Replay(evs []Event) {
	st := func(name string) task.State {
		switch name {
		case "runnable":
			return task.Runnable
		case "sleeping":
			return task.Sleeping
		case "dead":
			return task.Dead
		default:
			return task.Running
		}
	}
	pol := func(name string) task.Policy {
		switch name {
		case "FIFO":
			return task.FIFO
		case "RR":
			return task.RR
		case "HPC":
			return task.HPC
		case "IDLE":
			return task.Idle
		default:
			return task.Normal
		}
	}
	polOf := func(taskName string) task.Policy {
		if strings.HasPrefix(taskName, "swapper") {
			return task.Idle
		}
		return task.Normal
	}
	// Replay tracks the policy each task last exhibited, so switch events
	// (which carry no policy) classify correctly.
	seen := make([]task.Policy, 0, 64)
	remember := func(id int, p task.Policy) {
		for len(seen) <= id {
			seen = append(seen, task.Normal)
		}
		seen[id] = p
	}
	policyAt := func(id int, name string) task.Policy {
		if id < len(seen) && !strings.HasPrefix(name, "swapper") {
			return seen[id]
		}
		return polOf(name)
	}
	for _, e := range evs {
		switch e.Ev {
		case KindSwitch:
			prev := &task.Task{ID: e.PID, Name: e.Prev,
				Policy: policyAt(e.PID, e.Prev), State: st(e.PState)}
			next := &task.Task{ID: e.NID, Name: e.Next,
				Policy: policyAt(e.NID, e.Next), State: task.Running}
			a.Switch(sim.Time(e.T), e.CPU, prev, next)
		case KindWake:
			a.Wake(sim.Time(e.T), &task.Task{ID: e.TID, Name: e.Task,
				Policy: policyAt(e.TID, e.Task)}, e.CPU)
		case KindFork:
			p := pol(e.Policy)
			remember(e.TID, p)
			a.Fork(sim.Time(e.T), &task.Task{ID: e.TID, Name: e.Task, Policy: p}, e.CPU)
		case KindExit:
			a.Exit(sim.Time(e.T), &task.Task{ID: e.TID, Name: e.Task,
				Policy: policyAt(e.TID, e.Task)})
		case KindMigrate:
			a.Migrate(sim.Time(e.T), &task.Task{ID: e.TID, Name: e.Task,
				Policy: policyAt(e.TID, e.Task)}, e.From, e.To, 0)
		}
	}
}

// Finish settles open run spans and CPU occupancy at the last observed
// instant, so totals cover the whole trace. Call once, after the run.
func (a *Accounting) Finish() {
	if a.done {
		return
	}
	a.done = true
	for _, c := range a.CPUs {
		if c == nil {
			continue
		}
		c.ClassTime[c.currClass] += a.last.Sub(c.since)
		c.since = a.last
	}
	for _, ts := range a.Tasks {
		if ts == nil {
			continue
		}
		if ts.onSince != unset {
			ts.Run += a.last.Sub(ts.onSince)
			ts.onSince = unset
		}
	}
}

// End reports the last instant the ledger observed.
func (a *Accounting) End() sim.Time { return a.last }

// TaskAggregate sums TaskStats over a name-selected group of tasks.
type TaskAggregate struct {
	N                           int
	Run, Wait, Block            sim.Duration
	WaitMax                     sim.Duration
	Slices, Preempt, Migrations uint64
}

// Aggregate sums the stats of every task whose name starts with prefix
// (e.g. "rank" for the MPI ranks of a measured run).
func (a *Accounting) Aggregate(prefix string) TaskAggregate {
	var agg TaskAggregate
	for _, ts := range a.Tasks {
		if ts == nil || !strings.HasPrefix(ts.Name, prefix) {
			continue
		}
		agg.N++
		agg.Run += ts.Run
		agg.Wait += ts.Wait
		agg.Block += ts.Block
		if ts.WaitMax > agg.WaitMax {
			agg.WaitMax = ts.WaitMax
		}
		agg.Slices += ts.Slices
		agg.Preempt += ts.Preempt
		agg.Migrations += ts.Migrations
	}
	return agg
}

func ms(d sim.Duration) float64 { return float64(d) / 1e6 }

// TaskTable renders the per-task ledger, one row per non-idle task in ID
// order (dense IDs make the order deterministic without sorting).
func (a *Accounting) TaskTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %4s %-5s %12s %12s %12s %12s %7s %8s %6s %5s\n",
		"TASK", "ID", "CLASS", "RUN(ms)", "WAIT(ms)", "MAXWAIT(ms)", "BLOCK(ms)",
		"SLICES", "PREEMPT", "MIGR", "STATE")
	for _, ts := range a.Tasks {
		if ts == nil || ts.Class == sched.ClassIdle {
			continue
		}
		state := "live"
		if ts.Dead {
			state = "dead"
		}
		fmt.Fprintf(&b, "%-14s %4d %-5s %12.3f %12.3f %12.3f %12.3f %7d %8d %6d %5s\n",
			ts.Name, ts.ID, sched.ClassName(ts.Class),
			ms(ts.Run), ms(ts.Wait), ms(ts.WaitMax), ms(ts.Block),
			ts.Slices, ts.Preempt, ts.Migrations, state)
	}
	return b.String()
}

// CPUTable renders the per-CPU occupancy ledger.
func (a *Accounting) CPUTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %9s %12s %12s %12s %12s %7s\n",
		"CPU", "SWITCHES", "RT(ms)", "HPC(ms)", "CFS(ms)", "IDLE(ms)", "BUSY%")
	for _, c := range a.CPUs {
		if c == nil {
			continue
		}
		total := c.Busy() + c.ClassTime[sched.ClassIdle]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(c.Busy()) / float64(total)
		}
		fmt.Fprintf(&b, "cpu%-2d %9d %12.3f %12.3f %12.3f %12.3f %6.1f%%\n",
			c.CPU, c.Switches,
			ms(c.ClassTime[sched.ClassRT]), ms(c.ClassTime[sched.ClassHPC]),
			ms(c.ClassTime[sched.ClassCFS]), ms(c.ClassTime[sched.ClassIdle]), pct)
	}
	return b.String()
}

// WaitHistTable renders the scheduling-latency histogram.
func (a *Accounting) WaitHistTable() string {
	return a.WaitHist.Render(40, "runnable-wait latency (ms)")
}
