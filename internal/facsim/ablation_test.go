package facsim

import (
	"testing"

	"facile/facile"
	"facile/internal/core"
)

// The §6.3 ablations of the Facile compiler, as testing.B targets:
//
//	go test -run '^$' -bench . ./internal/facsim

// ablationScale keeps one iteration laptop-sized.
const ablationScale = 3

// benchOOOCustom runs fac-ooo, memoizing, on 129.compress with the given
// compiler options and reports the simulated-instruction rate and the
// bytes memoized.
func benchOOOCustom(b *testing.B, copt core.Options) {
	w, err := wlGet("129.compress", ablationScale)
	if err != nil {
		b.Fatal(err)
	}
	var insts, bytes uint64
	for i := 0; i < b.N; i++ {
		in, err := NewOOOCustom(w.Prog, Options{Memoize: true}, copt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := in.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		insts, bytes = res.Insts, res.Stats.TotalMemoBytes
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msim-inst/s")
	b.ReportMetric(float64(bytes)/(1<<20), "MB-memoized")
}

// BenchmarkAblationLiveness is the §6.3 (#3) ablation: the liveness
// optimization elides write-throughs of globals no dynamic reader
// observes, shrinking the action stream and cache.
func BenchmarkAblationLiveness(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchOOOCustom(b, core.Options{}) })
	b.Run("liveness-opt", func(b *testing.B) { benchOOOCustom(b, core.Options{LiftLiveOnly: true}) })
}

// BenchmarkAblationConstFold is the §6.3 (#5) ablation: compile-time
// constant folding / copy propagation / DCE in the Facile compiler.
func BenchmarkAblationConstFold(b *testing.B) {
	b.Run("optimized", func(b *testing.B) { benchOOOCustom(b, core.Options{}) })
	b.Run("no-constfold", func(b *testing.B) { benchOOOCustom(b, core.Options{NoOptimize: true}) })
}

// BenchmarkCompile measures the Facile compiler itself over the bundled
// descriptions.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"func", facile.FuncSim()},
		{"inorder", facile.InOrderSim()},
		{"ooo", facile.OOOSim()},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompileSource(c.src, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
