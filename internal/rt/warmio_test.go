package rt_test

import (
	"bytes"
	"reflect"
	"runtime/debug"
	"testing"

	"facile/internal/core"
	"facile/internal/rt"
	"facile/internal/snapshot"
)

// TestWarmCacheSaveLoadRoundTrip persists a detached rt cache through the
// snapshot codec and adopts the reloaded copy into a fresh machine: same
// results, more replays than cold — the same contract as an in-memory
// adoption.
func TestWarmCacheSaveLoadRoundTrip(t *testing.T) {
	sim, err := core.CompileSource(counterSrc, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	const steps = 100
	run := func(wc *rt.WarmCache) (*rt.Machine, []int64) {
		var emitted []int64
		m := sim.NewMachine(core.NullText(), rt.Options{Memoize: true})
		if err := m.RegisterExtern("emit", func(a []int64) int64 {
			emitted = append(emitted, a[0])
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.SetIntArgs(0); err != nil {
			t.Fatal(err)
		}
		if wc != nil && !m.AdoptCache(wc) {
			t.Fatal("AdoptCache refused the cache")
		}
		if err := m.Run(steps); err != nil {
			t.Fatal(err)
		}
		return m, emitted
	}

	cold, coldOut := run(nil)
	coldStats := cold.Stats()
	wc := cold.DetachCache()
	if wc == nil || wc.Entries() == 0 {
		t.Fatal("no detached cache to persist")
	}
	entries, bs := wc.Entries(), wc.Bytes()

	w := snapshot.NewWriter()
	wc.Save(w)
	if wc.Entries() != entries || wc.Bytes() != bs {
		t.Fatal("Save mutated the cache")
	}
	loaded, err := rt.LoadWarmCache(snapshot.NewReader(w.Payload()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entries() != entries || loaded.Bytes() != bs {
		t.Fatalf("loaded cache sized %d entries/%d bytes, saved %d/%d",
			loaded.Entries(), loaded.Bytes(), entries, bs)
	}

	warm, warmOut := run(loaded)
	warmStats := warm.Stats()
	if !reflect.DeepEqual(coldOut, warmOut) {
		t.Errorf("reloaded-warm emitted %v != cold %v", warmOut, coldOut)
	}
	if warmStats.Replays <= coldStats.Replays {
		t.Errorf("reloaded-warm replayed %d steps, expected more than cold %d",
			warmStats.Replays, coldStats.Replays)
	}
	if warmStats.SlowSteps >= coldStats.SlowSteps {
		t.Errorf("reloaded-warm ran %d slow steps, expected fewer than cold %d",
			warmStats.SlowSteps, coldStats.SlowSteps)
	}
}

// TestLoadWarmCacheRejectsCorruption: version skew and truncation fail
// the load instead of producing a partially decoded cache.
func TestLoadWarmCacheRejectsCorruption(t *testing.T) {
	sim, err := core.CompileSource(counterSrc, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := sim.NewMachine(core.NullText(), rt.Options{Memoize: true})
	if err := m.RegisterExtern("emit", func([]int64) int64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIntArgs(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	wc := m.DetachCache()
	w := snapshot.NewWriter()
	wc.Save(w)
	good := w.Payload()

	skew := snapshot.NewWriter()
	skew.U64(rt.WarmFormatVersion + 1)
	if _, err := rt.LoadWarmCache(snapshot.NewReader(append(skew.Payload(), good[1:]...))); err == nil {
		t.Fatal("future format version loaded")
	}
	if _, err := rt.LoadWarmCache(snapshot.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated stream loaded")
	}
}

// TestWarmLoadDeepStructures: a warm cache can arrive from outside the
// process, so its shape is untrusted. A 1 M-node chain and a 1 M-deep fork
// nesting must each load and save back to the same bytes, or be refused,
// within a 64 MiB goroutine stack. A low GC target keeps the test's peak
// memory near the 1 M nodes it holds.
func TestWarmLoadDeepStructures(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine and a million nodes: nothing for the race detector to find")
	}
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	const n = 1 << 20
	node := func(w *snapshot.Writer, forks uint64) {
		w.Bool(true)
		w.I64(0)    // block
		w.I64s(nil) // placeholders
		w.String("")
		w.U64(forks)
	}
	for _, tc := range []struct {
		name string
		tree func(w *snapshot.Writer)
	}{
		{"chain", func(w *snapshot.Writer) {
			for i := 0; i < n; i++ {
				node(w, 0)
			}
			w.Bool(false)
		}},
		{"fork-nesting", func(w *snapshot.Writer) {
			for i := 0; i < n; i++ {
				node(w, 1)
				w.I64(0) // fork value
			}
			for i := 0; i <= n; i++ {
				w.Bool(false) // the innermost fork's subtree, then every next
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := snapshot.NewWriter()
			w.U64(rt.WarmFormatVersion)
			w.U64(0) // gen
			w.U64(0) // bytes
			w.U64(1) // entries
			w.String("k")
			w.U64(0) // entry bytes
			tc.tree(w)
			in := w.Payload()
			wc, err := rt.LoadWarmCache(snapshot.NewReader(in))
			if err != nil {
				t.Logf("refused: %v", err)
				return
			}
			out := snapshot.NewWriter()
			wc.Save(out)
			if !bytes.Equal(out.Payload(), in) {
				t.Errorf("saved %d bytes, loaded %d; want the same bytes", len(out.Payload()), len(in))
			}
		})
	}
}
