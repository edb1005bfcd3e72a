package schedcheck

import "hplsim/internal/sim"

// minCompute keeps shrunk phases meaningful: below this the simulation is
// all edges and no steady state.
const minCompute = 50 * sim.Microsecond

// candidates enumerates one-step reductions of the scenario, biggest wins
// first: drop noise tasks, drop ranks, shrink the topology, drop phases,
// halve iteration counts and durations. Every candidate is a fresh deep
// copy.
func candidates(s Scenario) []Scenario {
	var out []Scenario

	// Halve, then drop individual noise tasks.
	if n := len(s.Daemons); n >= 2 {
		c := s.clone()
		c.Daemons = c.Daemons[:n/2]
		out = append(out, c)
	}
	for i := range s.Daemons {
		c := s.clone()
		c.Daemons = append(c.Daemons[:i], c.Daemons[i+1:]...)
		out = append(out, c)
	}
	if n := len(s.RTNoise); n >= 2 {
		c := s.clone()
		c.RTNoise = c.RTNoise[:n/2]
		out = append(out, c)
	}
	for i := range s.RTNoise {
		c := s.clone()
		c.RTNoise = append(c.RTNoise[:i], c.RTNoise[i+1:]...)
		out = append(out, c)
	}

	// Drop ranks (keep at least one). Barrier iteration counts stay equal
	// because whole ranks are removed.
	if n := len(s.Ranks); n >= 3 {
		c := s.clone()
		c.Ranks = c.Ranks[:(n+1)/2]
		out = append(out, c)
	}
	if len(s.Ranks) >= 2 {
		for i := range s.Ranks {
			c := s.clone()
			c.Ranks = append(c.Ranks[:i], c.Ranks[i+1:]...)
			out = append(out, c)
		}
	}

	// Shrink the topology one dimension at a time, halving so wide nodes
	// (up to 4x16x2) converge in a few steps. Candidates that strand an
	// RT-pinned CPU outside the smaller topology fail Validate and are
	// skipped by the caller.
	if s.Topo.Threads > 1 {
		c := s.clone()
		c.Topo.Threads /= 2
		out = append(out, c)
	}
	if s.Topo.Cores > 1 {
		c := s.clone()
		c.Topo.Cores /= 2
		out = append(out, c)
	}
	if s.Topo.Chips > 1 {
		c := s.clone()
		c.Topo.Chips /= 2
		out = append(out, c)
	}

	// Drop the last phase of every rank together (keeps barrier arrival
	// counts equal across ranks).
	dropLast := true
	for _, r := range s.Ranks {
		if len(r.Phases) < 2 {
			dropLast = false
		}
	}
	if dropLast {
		c := s.clone()
		for i := range c.Ranks {
			c.Ranks[i].Phases = c.Ranks[i].Phases[:len(c.Ranks[i].Phases)-1]
		}
		out = append(out, c)
	}

	// Halve iteration counts of every phase together.
	canHalveIters := false
	for _, r := range s.Ranks {
		for _, p := range r.Phases {
			if p.Iters >= 2 {
				canHalveIters = true
			}
		}
	}
	if canHalveIters && !s.Barrier {
		c := s.clone()
		for i := range c.Ranks {
			for j := range c.Ranks[i].Phases {
				if c.Ranks[i].Phases[j].Iters >= 2 {
					c.Ranks[i].Phases[j].Iters /= 2
				}
			}
		}
		out = append(out, c)
	}
	if s.Barrier {
		// In barrier mode iteration counts are aligned per phase index
		// across ranks; halve them in lockstep.
		c := s.clone()
		changed := false
		for j := range c.Ranks[0].Phases {
			if c.Ranks[0].Phases[j].Iters >= 2 {
				changed = true
				for i := range c.Ranks {
					c.Ranks[i].Phases[j].Iters /= 2
				}
			}
		}
		if changed {
			out = append(out, c)
		}
	}

	// Halve compute and sleep durations, and the noise schedules.
	{
		c := s.clone()
		changed := false
		for i := range c.Ranks {
			c.Ranks[i].Start /= 2
			for j := range c.Ranks[i].Phases {
				p := &c.Ranks[i].Phases[j]
				if p.Compute/2 >= minCompute {
					p.Compute /= 2
					changed = true
				}
				if p.Sleep > 0 {
					p.Sleep /= 2
					changed = true
				}
			}
		}
		for i := range c.Daemons {
			c.Daemons[i].Period /= 2
			if c.Daemons[i].Service/2 > 0 {
				c.Daemons[i].Service /= 2
			}
		}
		if changed {
			out = append(out, c)
		}
	}

	// Zero all sleeps (independent mode; barrier phases rarely sleep).
	{
		c := s.clone()
		changed := false
		for i := range c.Ranks {
			for j := range c.Ranks[i].Phases {
				if c.Ranks[i].Phases[j].Sleep > 0 {
					c.Ranks[i].Phases[j].Sleep = 0
					changed = true
				}
			}
		}
		if changed {
			out = append(out, c)
		}
	}

	return out
}
