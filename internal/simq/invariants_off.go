//go:build !invariants

package simq

// checkState is a no-op in normal builds; see invariants_on.go.
func (s *State) checkState() {}
