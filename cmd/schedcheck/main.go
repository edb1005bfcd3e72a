// Command schedcheck drives the property-based scheduler harnesses from
// the command line. It checks two layers: the node-kernel harness
// (internal/schedcheck, the default) and, with -batch, the cluster batch
// layer (internal/batch/batchcheck). Each layer has two modes:
//
// Corpus mode (default) generates -scenarios seeded scenarios starting at
// -seed and checks every applicable oracle against each. Node oracles:
// determinism, class-priority dominance, fork-time-only migration, noise
// insulation, permutation invariance, time rescaling. Batch oracles:
// determinism fingerprint over dispatch order, node-hour conservation,
// EASY head-reservation, FCFS dominance, completion. The -v log lists the
// scenarios in seed order at any -workers. The lowest failing seed's
// scenario is auto-shrunk to a minimal repro and, with -out, written as a
// replay file suitable for committing under the layer's testdata/repros/.
//
// Replay mode (-replay) re-checks a repro file, or every *.json repro in a
// directory, and verifies the recorded expectation still holds — "pass"
// repros stay green, "fail" repros keep tripping their pinned oracle.
//
// Exit status is 0 when everything holds, 1 when an oracle fires or a
// replay diverges, 2 on usage or I/O errors.
//
// Examples:
//
//	schedcheck -scenarios 500
//	schedcheck -seed 38 -scenarios 1 -v
//	schedcheck -replay internal/schedcheck/testdata/repros
//	schedcheck -batch -scenarios 200
//	schedcheck -batch -replay internal/batch/batchcheck/testdata/repros
package main

import (
	"flag"
	"fmt"
	"os"

	"hplsim/internal/batch/batchcheck"
	"hplsim/internal/schedcheck"
	"hplsim/internal/schedcheck/prop"
)

func main() {
	var (
		scenarios = flag.Int("scenarios", 200, "number of seeded scenarios to generate and check")
		seed      = flag.Uint64("seed", 1, "first seed of the corpus")
		batchMode = flag.Bool("batch", false, "check the cluster batch layer instead of the node kernel")
		replay    = flag.String("replay", "", "replay a repro file or directory instead of generating a corpus")
		out       = flag.String("out", "", "write the shrunk repro of the first failure to this file")
		budget    = flag.Int("shrink-budget", prop.DefaultShrinkBudget, "max oracle checks spent shrinking a failure")
		workers   = flag.Int("workers", 0, "parallel checkers (0 = GOMAXPROCS; results are worker-count independent)")
		verbose   = flag.Bool("v", false, "log every scenario checked")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: schedcheck [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *replay == "" && *scenarios <= 0 {
		fmt.Fprintln(os.Stderr, "schedcheck: -scenarios must be positive")
		os.Exit(2)
	}
	var code int
	if *batchMode {
		code = check(batchcheck.Harness, *replay, *scenarios, *seed, *workers, *budget, *out, *verbose)
	} else {
		code = check(schedcheck.Harness, *replay, *scenarios, *seed, *workers, *budget, *out, *verbose)
	}
	os.Exit(code)
}

// check replays path (a repro file, or every repro in a directory) when
// it is set, and otherwise runs the seeded corpus. It returns the exit
// status.
func check[S prop.Scenario](h prop.Harness[S], path string, scenarios int, seed uint64, workers, budget int, out string, verbose bool) int {
	if path == "" {
		return h.Corpus(os.Stdout, os.Stderr, scenarios, seed, workers, budget, out, verbose)
	}
	info, err := os.Stat(path)
	if err == nil {
		if info.IsDir() {
			err = h.ReplayDir(path)
		} else {
			err = h.ReplayFile(path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedcheck:", err)
		return 1
	}
	fmt.Println("replay ok")
	return 0
}
