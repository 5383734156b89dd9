// Package parsim runs simulations in parallel without giving up
// determinism. It provides two building blocks:
//
//   - ForEachCtx, a deterministic worker pool that shards independent work
//     items (the interval runs below, the points of a sweep) across
//     goroutines while keeping results in item order, and
//
//   - interval simulation (interval.go), which splits one workload into
//     instruction intervals using functional warm-up plus snapshot
//     hand-off and runs the detailed intervals concurrently on cloned
//     machines, merging statistics so the parallel result is
//     bit-identical to the sequential one.
package parsim

import (
	"context"
	"sync"
)

// ForEachCtx invokes fn(i) for every i in [0, n), using up to `workers`
// goroutines. Each item's results must be written only to slots owned by
// that item (typically results[i]), which makes the output independent of
// scheduling. With workers <= 1 the calls run sequentially on the calling
// goroutine — by construction the reference ordering that the parallel
// path must reproduce.
//
// All items run even when some fail; the returned error is the one from
// the lowest-numbered failing item, again independent of scheduling.
//
// Cancellation is cooperative: once ctx is done no further items start
// (items already running finish normally — fn is never interrupted
// mid-item). A canceled run returns ctx's error, which takes precedence
// over item errors since the item set that ran is scheduling-dependent
// once cancellation cuts it short.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			errs[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = fn(i)
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
