package fastsim

import (
	"bytes"
	"runtime/debug"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/snapshot"
)

// TestWarmCacheSaveLoadRoundTrip persists a detached cache through the
// snapshot codec and adopts the reloaded copy into a fresh simulator: the
// warm run must produce identical results and fast-forward more than the
// cold run, exactly as an in-memory adoption would.
func TestWarmCacheSaveLoadRoundTrip(t *testing.T) {
	p := asmOrDie(t, sumLoop)

	s1 := New(uarch.Default(), p, Options{Memoize: true})
	res1 := s1.Run(0)
	st1 := s1.Stats()
	wc := s1.DetachCache()
	if wc == nil || wc.Entries() == 0 {
		t.Fatal("no detached cache to persist")
	}
	entries, bs := wc.Entries(), wc.Bytes()

	w := snapshot.NewWriter()
	wc.Save(w)
	// Save is a read-only walk: the original stays parked and adoptable.
	if wc.Entries() != entries || wc.Bytes() != bs {
		t.Fatalf("Save mutated the cache: %d/%d, was %d/%d",
			wc.Entries(), wc.Bytes(), entries, bs)
	}

	loaded, err := LoadWarmCache(snapshot.NewReader(w.Payload()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entries() != entries || loaded.Bytes() != bs {
		t.Fatalf("loaded cache sized %d entries/%d bytes, saved %d/%d",
			loaded.Entries(), loaded.Bytes(), entries, bs)
	}

	s2 := New(uarch.Default(), p, Options{Memoize: true})
	if !s2.AdoptCache(loaded) {
		t.Fatal("AdoptCache refused a reloaded warm cache")
	}
	res2 := s2.Run(0)
	st2 := s2.Stats()
	if res1.Cycles != res2.Cycles || res1.Insts != res2.Insts {
		t.Errorf("reloaded-warm run diverged: cold %d insts/%d cycles, warm %d/%d",
			res1.Insts, res1.Cycles, res2.Insts, res2.Cycles)
	}
	if !bytes.Equal(res1.Output, res2.Output) {
		t.Errorf("reloaded-warm output %q != cold %q", res2.Output, res1.Output)
	}
	if st2.FastForwardedPc <= st1.FastForwardedPc {
		t.Errorf("reloaded-warm fast-forward %.3f%% not above cold %.3f%%",
			st2.FastForwardedPc, st1.FastForwardedPc)
	}
}

// TestWarmCacheSaveDeterministic: equal caches serialize to equal bytes
// (the walk is key-sorted), the property content-addressed storage and
// cross-node export rely on.
func TestWarmCacheSaveDeterministic(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	s := New(uarch.Default(), p, Options{Memoize: true})
	s.Run(0)
	wc := s.DetachCache()

	w1 := snapshot.NewWriter()
	wc.Save(w1)
	w2 := snapshot.NewWriter()
	wc.Save(w2)
	if !bytes.Equal(w1.Payload(), w2.Payload()) {
		t.Fatal("two Saves of the same cache produced different bytes")
	}
}

// TestLoadWarmCacheRejectsCorruption drives the structural validators:
// version skew, truncation, and cooked accounting must all fail the load
// rather than hand back a partially decoded cache.
func TestLoadWarmCacheRejectsCorruption(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	s := New(uarch.Default(), p, Options{Memoize: true})
	s.Run(0)
	wc := s.DetachCache()
	w := snapshot.NewWriter()
	wc.Save(w)
	good := w.Payload()

	t.Run("version-skew", func(t *testing.T) {
		skew := snapshot.NewWriter()
		skew.U64(WarmFormatVersion + 1)
		blob := append(skew.Payload(), good[1:]...)
		if _, err := LoadWarmCache(snapshot.NewReader(blob)); err == nil {
			t.Fatal("future format version loaded")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := LoadWarmCache(snapshot.NewReader(good[:len(good)/2])); err == nil {
			t.Fatal("truncated stream loaded")
		}
	})
	t.Run("accounting-mismatch", func(t *testing.T) {
		// Rewrite the header's total-bytes field (third varint) to a lie.
		r := snapshot.NewReader(good)
		r.U64()
		gen := r.U64()
		pre := snapshot.NewWriter()
		pre.U64(WarmFormatVersion)
		pre.U64(gen)
		pre.U64(wc.Bytes())
		hdr := snapshot.NewWriter()
		hdr.U64(WarmFormatVersion)
		hdr.U64(gen)
		hdr.U64(wc.Bytes() + 1)
		blob := append(hdr.Payload(), good[len(pre.Payload()):]...)
		if _, err := LoadWarmCache(snapshot.NewReader(blob)); err == nil {
			t.Fatal("cooked byte accounting loaded")
		}
	})
	t.Run("bytes-overflow", func(t *testing.T) {
		// Two entries of 2⁶³ bytes each under a header of 0: their sum
		// wraps to the header, but each entry alone already exceeds it.
		w := snapshot.NewWriter()
		w.U64(WarmFormatVersion)
		w.U64(0) // gen
		w.U64(0) // bytes
		w.U64(2) // entries
		for _, k := range []string{"a", "b"} {
			w.String(k)
			w.U64(1 << 63)
			w.Bool(true)
			w.U8(aEnd) // kind
			w.U8(0)    // flags
			w.U8(0)    // class
			for i := 0; i < 3; i++ {
				w.U64(0) // slot, dcyc, pc
			}
			for i := 0; i < 4; i++ {
				w.U8(0) // op, rd, rs1, rs2
			}
			w.I64(0)
			w.Bool(false)
			w.U64(0)
			w.String("")
			w.U64(0) // forks
			w.Bool(false)
		}
		if _, err := LoadWarmCache(snapshot.NewReader(w.Payload())); err == nil {
			t.Fatal("entry bytes that wrap past the header loaded")
		}
	})
}

// TestWarmLoadDeepStructures: a warm cache can arrive from outside the
// process, so its shape is untrusted. A 1 M-action chain and a 1 M-deep
// fork nesting must each load and save back to the same bytes, or be
// refused, within a 64 MiB goroutine stack. A low GC target keeps the
// test's peak memory near the 1 M actions it holds.
func TestWarmLoadDeepStructures(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine and a million actions: nothing for the race detector to find")
	}
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	const n = 1 << 20
	act := func(w *snapshot.Writer, forks uint64) {
		w.Bool(true)
		for i := 0; i < 3; i++ {
			w.U8(0) // kind, flags, class
		}
		for i := 0; i < 3; i++ {
			w.U64(0) // slot, dcyc, pc
		}
		for i := 0; i < 4; i++ {
			w.U8(0) // op, rd, rs1, rs2
		}
		w.I64(0)
		w.Bool(false)
		w.U64(0)
		w.String("")
		w.U64(forks)
	}
	for _, tc := range []struct {
		name string
		tree func(w *snapshot.Writer)
	}{
		{"chain", func(w *snapshot.Writer) {
			for i := 0; i < n; i++ {
				act(w, 0)
			}
			w.Bool(false)
		}},
		{"fork-nesting", func(w *snapshot.Writer) {
			for i := 0; i < n; i++ {
				act(w, 1)
				w.U64(0) // fork value
			}
			for i := 0; i <= n; i++ {
				w.Bool(false) // the innermost fork's subtree, then every next
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := snapshot.NewWriter()
			w.U64(WarmFormatVersion)
			w.U64(0) // gen
			w.U64(0) // bytes
			w.U64(1) // entries
			w.String("k")
			w.U64(0) // entry bytes
			tc.tree(w)
			in := w.Payload()
			wc, err := LoadWarmCache(snapshot.NewReader(in))
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
