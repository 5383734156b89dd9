package runcfg

import (
	"bytes"
	"testing"

	"facile/internal/arch/fastsim"
	"facile/internal/arch/funcsim"
	"facile/internal/arch/ooo"
	"facile/internal/arch/uarch"
	"facile/internal/facsim"
	"facile/internal/workloads"
)

// FuzzEngines is the differential fuzzer: the fuzz input seeds
// workloads.Random, and the random terminating SVR32 program it builds
// must produce the golden model's output on every simulator, the Facile
// functional simulator must end with the golden registers, and the
// memoizing simulators (fastsim, fac-ooo) must match their non-memoizing
// twins cycle for cycle. Plain go test runs the seed corpus.
func FuzzEngines(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99991, 31337, 271828, 3141592} {
		f.Add(seed)
	}
	cfg := uarch.Default()
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, err := workloads.Random(seed, 40, 400)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gst, golden, err := funcsim.Run(prog, 10_000_000)
		if err != nil {
			t.Fatalf("seed %d: golden: %v", seed, err)
		}
		if !gst.Halted {
			t.Fatalf("seed %d: random program did not terminate", seed)
		}

		// conventional OOO
		base := ooo.Run(cfg, prog, 0)
		if !bytes.Equal(base.Output, golden.Output) {
			t.Fatalf("seed %d: ooo output %q != %q", seed, base.Output, golden.Output)
		}

		// hand-coded memoizer, both modes
		plain := fastsim.New(cfg, prog, fastsim.Options{Memoize: false}).Run(0)
		memo := fastsim.New(cfg, prog, fastsim.Options{Memoize: true}).Run(0)
		if plain.Cycles != memo.Cycles {
			t.Fatalf("seed %d: fastsim cycles %d != %d", seed, memo.Cycles, plain.Cycles)
		}
		if !bytes.Equal(memo.Output, golden.Output) {
			t.Fatalf("seed %d: fastsim output %q != %q", seed, memo.Output, golden.Output)
		}

		// Facile functional (memoized)
		in, err := facsim.NewFunctional(prog, facsim.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		fres, err := in.Run(0)
		if err != nil {
			t.Fatalf("seed %d: facile func: %v", seed, err)
		}
		if !bytes.Equal(fres.Output, golden.Output) {
			t.Fatalf("seed %d: facile output %q != %q", seed, fres.Output, golden.Output)
		}
		R, _ := in.M.Array("R")
		for r := 1; r < 32; r++ {
			if R[r] != gst.R[r] {
				t.Fatalf("seed %d: facile R[%d]=%d, golden %d", seed, r, R[r], gst.R[r])
			}
		}

		// Facile OOO, both modes
		var cyc [2]uint64
		for i, m := range []bool{false, true} {
			oi, err := facsim.NewOOO(prog, facsim.Options{Memoize: m})
			if err != nil {
				t.Fatal(err)
			}
			ores, err := oi.Run(0)
			if err != nil {
				t.Fatalf("seed %d: facile ooo: %v", seed, err)
			}
			if !bytes.Equal(ores.Output, golden.Output) {
				t.Fatalf("seed %d: facile ooo output %q != %q", seed, ores.Output, golden.Output)
			}
			cyc[i] = ores.Cycles
		}
		if cyc[0] != cyc[1] {
			t.Fatalf("seed %d: facile ooo cycles %d != %d", seed, cyc[1], cyc[0])
		}
	})
}
