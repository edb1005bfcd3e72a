// Package simq is the deterministic core of the simulation-queue service:
// a priority job queue whose every state transition is one journaled
// record, so the dispatcher's state is a pure function of the record
// sequence. The service edge (internal/simqd) decides a transition, writes
// the record to the journal, and only then applies it — a killed
// dispatcher replays its journal on restart and recovers bitwise-identical
// queue state. Wall-clock time never enters this package: records carry
// stamps assigned at the edge, and every Apply/decision method takes the
// observed time as a parameter.
//
// The determinism contract (PRs 2-9) is what makes the service testable to
// a standard no real scheduler can meet: any worker re-running any job
// must produce a bitwise-identical result artifact, so retries, duplicate
// deliveries, and crash recovery all reduce to byte-equality assertions.
package simq

import (
	"fmt"
	"hash/fnv"

	"hplsim/internal/sim"
)

// JobState is the lifecycle state of one queued job.
type JobState int

const (
	// Pending jobs sit in the priority queue (possibly cooling under a
	// retry backoff) waiting to be claimed.
	Pending JobState = iota
	// Leased jobs are held by a worker under a deadline; an expired lease
	// requeues the job with capped backoff.
	Leased
	// Done jobs have a verified result artifact.
	Done
	// Failed jobs exhausted their attempts (or failed terminally).
	Failed
	// Canceled jobs were withdrawn by a client before completing.
	Canceled
)

func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Leased:
		return "leased"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Config parameterises the queue's policy knobs. The zero value selects
// the defaults below; the journal is self-contained (requeue records carry
// their computed backoff), so replaying a journal does not depend on the
// config that produced it.
type Config struct {
	// LeaseFor is how long a claimed job stays leased before the
	// dispatcher may presume the worker dead and requeue it.
	LeaseFor sim.Duration
	// MaxAttempts caps total executions of one job (first run + retries).
	MaxAttempts int
	// BackoffBase is the requeue delay after the first failed attempt;
	// each further attempt doubles it up to BackoffCap.
	BackoffBase sim.Duration
	// BackoffCap bounds the exponential backoff.
	BackoffCap sim.Duration
	// AgingRate is the priority-aging rate in priority points per second
	// of queue wait (the internal/batch AgingQueue shape: uniform aging
	// reduces to a static key). 0 = pure static priority, FIFO within a
	// priority level.
	AgingRate float64
	// QuotaPerClient caps one client's in-flight (pending + leased) jobs;
	// submits beyond it are rejected 429-style. 0 selects the default.
	QuotaPerClient int
}

// Defaults for the zero Config.
const (
	DefaultLeaseFor       = 30 * sim.Second
	DefaultMaxAttempts    = 3
	DefaultBackoffBase    = sim.Second
	DefaultBackoffCap     = 60 * sim.Second
	DefaultQuotaPerClient = 16
)

// WithDefaults fills zero fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.LeaseFor <= 0 {
		c.LeaseFor = DefaultLeaseFor
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = DefaultBackoffCap
	}
	if c.QuotaPerClient <= 0 {
		c.QuotaPerClient = DefaultQuotaPerClient
	}
	return c
}

// Backoff is the requeue delay after attempt n (1-based): BackoffBase
// doubled per further attempt, capped at BackoffCap. A pure function so
// the edge can stamp requeue records and replay stays config-free.
func (c Config) Backoff(attempt int) sim.Duration {
	d := c.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.BackoffCap {
			return c.BackoffCap
		}
	}
	if d > c.BackoffCap {
		return c.BackoffCap
	}
	return d
}

// FNV-1a constants for Chaos.Hit, which folds words rather than hashing a
// byte slice (same constants as the schedcheck dispatch fingerprint).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Fingerprint is the FNV-1a hash of b: the artifact identity the
// dispatcher verifies on completion and duplicate delivery. Two workers
// re-running the same job must produce the same fingerprint — that is the
// determinism contract at the service boundary.
func Fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never returns an error
	return h.Sum64()
}

// FingerprintString renders fp in the fixed-width hex form records use.
func FingerprintString(fp uint64) string {
	return fmt.Sprintf("%016x", fp)
}
