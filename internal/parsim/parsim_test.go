package parsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"facile/internal/arch/fastsim"
	"facile/internal/arch/uarch"
	"facile/internal/workloads"
)

func TestForEachCoversAllItems(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		var ran [57]int32
		err := ForEachCtx(context.Background(), len(ran), workers, func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachLowestError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), 10, workers, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: err = %v, want item 3", workers, err)
		}
	}
	if err := ForEachCtx(context.Background(), 0, 4, func(int) error { return errors.New("no") }); err != nil {
		t.Fatalf("empty ForEachCtx: %v", err)
	}
}

// TestIntervalParallelDeterminism is the core parsim property: splitting a
// workload into intervals and simulating them on cloned machines yields
// bit-identical merged results for any worker count.
func TestIntervalParallelDeterminism(t *testing.T) {
	w, err := workloads.Get("126.gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Default()
	opt := fastsim.Options{Memoize: true}
	plan, err := PlanIntervals(w.Prog, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Intervals) < 3 {
		t.Fatalf("want a multi-interval plan, got %d intervals", len(plan.Intervals))
	}

	ref, err := RunIntervals(cfg, w.Prog, plan, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The merged run must still be the real program: compare against the
	// whole-program fast-forwarding simulator's architectural results.
	whole := fastsim.New(cfg, w.Prog, opt)
	wholeRes := whole.Run(0)
	if ref.ExitStatus != wholeRes.ExitStatus || !bytes.Equal(ref.Output, wholeRes.Output) {
		t.Fatalf("interval simulation changed program results: exit %d output %q, want %d %q",
			ref.ExitStatus, ref.Output, wholeRes.ExitStatus, wholeRes.Output)
	}

	// Gauges merge by maximum, counters by sum: the merged point-in-time
	// fields must equal the largest per-interval value, never the sum (each
	// interval has a private cache, so a sum is occupancy no cache ever had).
	var maxBytes, maxEntries, sumReplays uint64
	for _, r := range ref.Intervals {
		maxBytes = maxU64(maxBytes, r.Stats.CacheBytes)
		maxEntries = maxU64(maxEntries, r.Stats.CacheEntries)
		sumReplays += r.Stats.Replays
	}
	if ref.Stats.CacheBytes != maxBytes || ref.Stats.CacheEntries != maxEntries {
		t.Fatalf("merged gauges (bytes=%d entries=%d) != per-interval maxima (%d, %d)",
			ref.Stats.CacheBytes, ref.Stats.CacheEntries, maxBytes, maxEntries)
	}
	if ref.Stats.Replays != sumReplays {
		t.Fatalf("merged replay counter %d != per-interval sum %d", ref.Stats.Replays, sumReplays)
	}

	for _, workers := range []int{1, 2, 8} {
		got, err := RunIntervals(cfg, w.Prog, plan, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: merged result differs from sequential\nseq: %+v\npar: %+v",
				workers, ref, got)
		}
		if got.Stats.CacheBytes != ref.Stats.CacheBytes ||
			got.Stats.CacheEntries != ref.Stats.CacheEntries {
			t.Fatalf("workers=%d: merged gauge fields differ from sequential", workers)
		}
	}
}

// TestPlanIntervals covers the decomposition invariants: intervals tile the
// whole instruction stream and each start state is independent.
func TestPlanIntervals(t *testing.T) {
	w, err := workloads.Get("129.compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	const every = 5_000
	plan, err := PlanIntervals(w.Prog, every)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i, iv := range plan.Intervals {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
		if iv.Start.InstCount != sum {
			t.Fatalf("interval %d starts at %d, want %d", i, iv.Start.InstCount, sum)
		}
		if i < len(plan.Intervals)-1 && iv.Insts != every {
			t.Fatalf("interior interval %d has %d insts, want %d", i, iv.Insts, every)
		}
		sum += iv.Insts
	}
	if sum != plan.TotalInsts {
		t.Fatalf("intervals cover %d insts, plan says %d", sum, plan.TotalInsts)
	}
	if _, err := PlanIntervals(w.Prog, 0); err == nil {
		t.Fatal("zero interval length accepted")
	}
}

func TestForEachCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		release := make(chan struct{})
		err := ForEachCtx(ctx, 100, workers, func(i int) error {
			if int(ran.Add(1)) == workers {
				cancel()       // cancel while mid-flight
				close(release) // then let in-flight items finish
			}
			<-release
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight items finish, no new items start after cancel (the
		// dispatcher may have handed each worker at most the one item it
		// was already blocked sending).
		if n := ran.Load(); n > int32(2*workers) {
			t.Fatalf("workers=%d: %d items ran after cancel", workers, n)
		}
	}

	// An uncanceled ForEachCtx runs every item.
	var n atomic.Int32
	if err := ForEachCtx(context.Background(), 10, 4, func(int) error {
		n.Add(1)
		return nil
	}); err != nil || n.Load() != 10 {
		t.Fatalf("uncanceled: err=%v ran=%d, want nil/10", err, n.Load())
	}
}

func TestRunIntervalsCtxCanceled(t *testing.T) {
	w, err := workloads.Get("126.gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanIntervals(w.Prog, 2000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunIntervalsCtx(ctx, uarch.Default(), w.Prog, plan,
		fastsim.Options{Memoize: true}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// With a live context the chunked loop must match RunIntervals exactly.
	a, err := RunIntervals(uarch.Default(), w.Prog, plan, fastsim.Options{Memoize: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIntervalsCtx(context.Background(), uarch.Default(), w.Prog, plan,
		fastsim.Options{Memoize: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Insts != b.Insts || a.Cycles != b.Cycles || a.ArchHash != b.ArchHash ||
		!bytes.Equal(a.Output, b.Output) {
		t.Fatalf("ctx run diverged: %d/%d/%s vs %d/%d/%s",
			a.Insts, a.Cycles, a.ArchHash, b.Insts, b.Cycles, b.ArchHash)
	}
}
