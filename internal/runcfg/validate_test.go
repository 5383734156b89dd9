package runcfg

import (
	"testing"

	"facile/internal/workloads"
)

// TestSuiteCrossValidation is the repository's capstone test: every
// simulator agrees with the golden model on every benchmark, and every
// memoizing simulator produces cycle counts identical to its
// non-memoizing twin.
func TestSuiteCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweep is not short")
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := ValidateBenchmark(name, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}
