package experiments

import (
	"testing"

	"hplsim/internal/nas"
)

// The std/fast-forward benchmark pair measures the replication cost of one
// ep.A run per iteration in each tick mode; perfbench (perfbench/README.md)
// measures both modes end to end with repeated trials.

func BenchmarkRunStandard(b *testing.B) {
	opt := Options{Profile: nas.MustGet("ep", 'A'), Scheme: HPL, Seed: 1}
	for i := 0; i < b.N; i++ {
		opt.Seed++
		Run(opt)
	}
}

func BenchmarkRunFastForward(b *testing.B) {
	opt := Options{Profile: nas.MustGet("ep", 'A'), Scheme: HPL, Seed: 1, FastForward: true}
	for i := 0; i < b.N; i++ {
		opt.Seed++
		Run(opt)
	}
}
