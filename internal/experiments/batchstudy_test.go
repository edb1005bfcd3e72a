package experiments_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hplsim/internal/experiments"
	"hplsim/internal/nas"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func batchStudyOptions(t *testing.T) experiments.BatchStudyOptions {
	t.Helper()
	prof, err := nas.Get("is", 'A')
	if err != nil {
		t.Fatal(err)
	}
	return experiments.BatchStudyOptions{
		Profile:   prof,
		Nodes:     16,
		CalibReps: 4,
		Seeds:     []uint64{1, 2, 3, 4},
		Policies:  []string{"fcfs", "easy"},
		Schemes:   []experiments.Scheme{experiments.Std, experiments.HPL},
		Seed:      7,
	}
}

// TestBatchStudyGolden pins the full 4 seeds x {FCFS, EASY} x {Std, HPL}
// table byte for byte, following the schedstat golden-suite pattern:
// `go test ./internal/experiments -run BatchStudyGolden -update` rewrites
// the fixture after a deliberate behaviour change.
func TestBatchStudyGolden(t *testing.T) {
	rows, err := experiments.BatchStudy(batchStudyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 2 * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	got := []byte(experiments.FormatBatchStudy(rows))

	path := filepath.Join("testdata", "batch_study.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("batch study drifted from the golden table.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is deliberate)", got, want)
	}
}

// TestBatchStudyDeterministic pins that the whole two-level pipeline —
// kernel calibration runs included — is a pure function of its options.
func TestBatchStudyDeterministic(t *testing.T) {
	opt := batchStudyOptions(t)
	opt.Seeds = []uint64{1}
	a, err := experiments.BatchStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.BatchStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical study options produced different tables")
	}
}

// TestBatchStudySchemesDiffer is the scientific smoke test: the Std and
// HPL node kernels must produce different cluster outcomes on at least one
// (seed, policy) cell — otherwise the node model is not propagating into
// the batch layer at all.
func TestBatchStudySchemesDiffer(t *testing.T) {
	rows, err := experiments.BatchStudy(batchStudyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	byCell := make(map[[2]string][]experiments.BatchStudyRow)
	for _, r := range rows {
		key := [2]string{r.Policy, r.Scheme}
		byCell[key] = append(byCell[key], r)
	}
	differ := false
	for _, r := range rows {
		if r.Scheme != "std" {
			continue
		}
		for _, h := range rows {
			if h.Seed == r.Seed && h.Policy == r.Policy && h.Scheme == "hpl" && h.Makespan != r.Makespan {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("Std and HPL node models produced identical makespans on every cell")
	}
}
