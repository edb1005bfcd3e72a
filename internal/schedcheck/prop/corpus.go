package prop

import (
	"encoding/json"
	"fmt"
	"io"

	"hplsim/internal/pool"
)

// Corpus checks the n generated scenarios of seeds seed..seed+n-1 on up to
// workers goroutines (<= 0 means GOMAXPROCS); the output does not depend
// on the worker count. With verbose it writes one line per scenario to
// stdout, in seed order. When every oracle holds it writes a summary to
// stdout and returns 0. Otherwise it reports the lowest failing seed on
// stderr and shrinks that scenario within budget Check calls. With out
// set it writes the shrunk repro there, else it prints the shrunk scenario
// to stderr. It then returns 1, or 2 if the repro cannot be written.
func (h Harness[S]) Corpus(stdout, stderr io.Writer, n int, seed uint64, workers, budget int, out string, verbose bool) int {
	fails := make([]*Failure, n)
	var lines []string
	if verbose {
		lines = make([]string, n)
	}
	// Each invocation writes only its own slots, and the slots are read in
	// seed order after ForN returns, so no result depends on scheduling.
	pool.ForN(n, workers, func(i int) { //schedlint:ignore taint — per-seed slots, reduced in seed order
		s := h.Generate(seed + uint64(i))
		fails[i] = h.Check(s)
		if verbose {
			lines[i] = h.Describe(s)
		}
	})

	first, failed := -1, 0
	for i, f := range fails {
		if verbose {
			verdict := "ok"
			if f != nil {
				verdict = f.Error()
			}
			fmt.Fprintf(stdout, "seed %d: %s: %s\n", seed+uint64(i), lines[i], verdict)
		}
		if f != nil {
			failed++
			if first < 0 {
				first = i
			}
		}
	}
	if failed == 0 {
		fmt.Fprintf(stdout, "schedcheck: %d %s (seeds %d..%d), all oracles green\n",
			n, h.qualify("scenarios"), seed, seed+uint64(n)-1)
		return 0
	}

	firstSeed := seed + uint64(first)
	fmt.Fprintf(stderr, "schedcheck: %d of %d %s failed\n", failed, n, h.qualify("scenarios"))
	fmt.Fprintf(stderr, "seed %d: %v\n", firstSeed, fails[first])
	small, sf := h.Shrink(h.Generate(firstSeed), budget)
	fmt.Fprintf(stderr, "shrunk to %s: %v\n", h.Size(small), sf)
	if out != "" {
		r := Repro[S]{
			Version:  ReproVersion,
			Note:     fmt.Sprintf("shrunk from %s %d", h.qualify("seed"), firstSeed),
			Expect:   "fail",
			Oracle:   sf.Oracle,
			Scenario: small,
		}
		if err := WriteRepro(out, r); err != nil {
			fmt.Fprintln(stderr, "schedcheck:", err)
			return 2
		}
		fmt.Fprintf(stderr, "repro written to %s\n", out)
	} else if data, err := json.MarshalIndent(small, "", "  "); err == nil {
		fmt.Fprintf(stderr, "shrunk scenario:\n%s\n", data)
	}
	return 1
}

// qualify prefixes word with the harness Kind.
func (h Harness[S]) qualify(word string) string {
	if h.Kind == "" {
		return word
	}
	return h.Kind + " " + word
}
