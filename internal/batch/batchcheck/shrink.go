package batchcheck

import "hplsim/internal/sim"

// candidates enumerates one-step reductions, biggest wins first: drop
// jobs, shrink the cluster, halve work and estimates together, compress
// arrival gaps, flatten priorities, simplify the model. Every candidate is
// a fresh deep copy.
func candidates(s Scenario) []Scenario {
	var out []Scenario

	// Halve the trace, then drop individual jobs.
	if n := len(s.Jobs); n >= 2 {
		c := s.clone()
		c.Jobs = c.Jobs[:n/2]
		out = append(out, c)
	}
	for i := range s.Jobs {
		c := s.clone()
		c.Jobs = append(c.Jobs[:i], c.Jobs[i+1:]...)
		out = append(out, c)
	}

	// Shrink the machine (jobs that no longer fit invalidate the
	// candidate and Validate filters it out).
	if s.Nodes > 1 {
		c := s.clone()
		c.Nodes /= 2
		out = append(out, c)
	}

	// Halve every duration together (work and estimate keep their ratio,
	// so oracle applicability is preserved) and compress arrivals.
	c := s.clone()
	shrunkDur := false
	for i := range c.Jobs {
		if c.Jobs[i].Work >= 2*sim.Second {
			c.Jobs[i].Work /= 2
			c.Jobs[i].Est /= 2
			shrunkDur = true
		}
	}
	if shrunkDur {
		out = append(out, c)
	}
	c = s.clone()
	shrunkArr := false
	for i := range c.Jobs {
		if c.Jobs[i].Arrival >= 2 {
			c.Jobs[i].Arrival /= 2
			shrunkArr = true
		}
	}
	if shrunkArr {
		out = append(out, c)
	}

	// Flatten priorities and simplify the model.
	flat := s.clone()
	anyPrio := false
	for i := range flat.Jobs {
		if flat.Jobs[i].Priority != 0 {
			flat.Jobs[i].Priority = 0
			anyPrio = true
		}
	}
	if anyPrio {
		out = append(out, flat)
	}
	if s.Model == ModelNoisy {
		c := s.clone()
		c.Model = ModelExact
		c.Spread = 0
		out = append(out, c)
	}
	return out
}
