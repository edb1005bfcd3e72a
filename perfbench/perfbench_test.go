package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for perfbench when probeMemory
// starts it as a memory-probe process.
func TestMain(m *testing.M) {
	if os.Getenv(probeMemoryEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the tiny size for a fraction of a second.
func runTiny(t *testing.T, workload, trace string, extra ...string) (result, error) {
	t.Helper()
	args := append([]string{"--workload", workload, "--size", "tiny", "--seconds", "0.2",
		"--trace", trace, "--out", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s",
			workload, jerr, stdout.String(), stderr.String())
	}
	if err != nil {
		t.Logf("%s stderr:\n%s", workload, stderr.String())
	}
	return res, err
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyWorkloads runs every workload untraced and traced and requires a
// correct result carrying exactly the metrics BENCHMARK.json names, each
// with its unit. At the default seed the stored digest is checked too.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloadNames {
		for trace, want := range map[string]map[string]string{"0": endToEnd, "1": perLayer} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				res, err := runTiny(t, w, trace)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s not printed", name)
					case m.Unit != unit:
						t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case trace == "0" && *m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, *m.Value)
					}
				}
			})
		}
	}
}

// TestWrongDigestFails requires a run whose outputs do not match the
// expected digest to report correct=false and fail.
func TestWrongDigestFails(t *testing.T) {
	for _, w := range workloadNames {
		res, err := runTiny(t, w, "0", "--expect-digest", "0000000000000000")
		if !errors.Is(err, errChecks) {
			t.Errorf("%s: run with a wrong digest returned %v, want the output-check error", w, err)
		}
		if res.Correct {
			t.Errorf("%s: run with a wrong digest reported correct=true", w)
		}
	}
}

func TestDefaultSeedDigestsStored(t *testing.T) {
	for _, w := range workloadNames {
		for _, size := range []string{"full", "tiny"} {
			if _, ok := expectedDigest(options{workload: w, size: size, seed: defaultSeed}); !ok {
				t.Errorf("digests.json has no %s/%s entry for the default seed", w, size)
			}
		}
	}
}
