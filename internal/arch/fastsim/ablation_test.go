package fastsim

import (
	"fmt"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/workloads"
)

// BenchmarkStepGranularity sweeps the step-function quantum (§2.1: "the
// simulator's author determines the amount of calculation performed in a
// step"): longer steps amortize lookups, shorter ones re-key more often.
//
//	go test -run '^$' -bench StepGranularity ./internal/arch/fastsim
func BenchmarkStepGranularity(b *testing.B) {
	w, err := workloads.Get("101.tomcatv", 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []int{8, 16, 48, 128} {
		b.Run(fmt.Sprintf("commits=%d", sc), func(b *testing.B) {
			var insts, entries uint64
			for i := 0; i < b.N; i++ {
				s := New(uarch.Default(), w.Prog, Options{Memoize: true, StepCommits: sc})
				insts = s.Run(0).Insts
				entries = s.Stats().CacheEntries
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
			b.ReportMetric(float64(entries), "entries")
		})
	}
}
