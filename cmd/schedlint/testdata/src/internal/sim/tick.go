package sim

import "hplsim/internal/util"

// Tick reaches the host clock through two layers of module-local
// helpers: invisible to the per-file walltime rule, caught by taint with
// the full witness path.
func Tick() int64 {
	return util.Jitter() // want `\[taint\] deterministic core transitively reaches a nondeterministic source: sim\.Tick -> util\.Jitter -> walltime\.Start -> time\.Now`
}

// TickJustified takes the same dependency with the justification recorded
// at the call edge crossing into the core — the suppression is used, so
// the stale audit stays quiet about it.
func TickJustified() int64 {
	//schedlint:ignore taint
	return util.Jitter()
}

// Retry reaches the clock through a call cycle.
func Retry() int64 {
	return util.Pong(3) // want `\[taint\] .*: sim\.Retry -> util\.Pong -> util\.Ping -> walltime\.Start -> time\.Now`
}

// Replay fans work out through a sanctioned edge: the directive
// suppresses the crossing and stops the taint there.
func Replay(fn func()) {
	util.Fanout(fn) //schedlint:ignore taint — fixture: the justified crossing
}

// Phase sits upstream of the sanctioned edge: it must not be reported,
// or the directive would have to be repeated at every caller instead of
// living where the dependency is taken.
func Phase(fn func()) {
	Replay(fn)
}
