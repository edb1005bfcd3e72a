package experiments_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hplsim/internal/experiments"
)

// TestFigure1Renders pins the Figure 1 timeline byte for byte:
// `go test ./internal/experiments -run Figure1Renders -update` rewrites
// the fixture after a deliberate behaviour change.
func TestFigure1Renders(t *testing.T) {
	got := []byte(experiments.Figure1(5))
	path := filepath.Join("testdata", "figure1.golden")
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
		t.Errorf("Figure 1 drifted from the golden timeline.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is deliberate)", got, want)
	}
}
