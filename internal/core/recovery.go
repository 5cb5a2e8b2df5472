package core

import (
	"runtime"
	"sync"
)

// RecoveryReport summarizes an engine's last recovery pass: how much log or
// metadata it had to process. Engines fill it during Open; the testbed and
// the serving runtime surface it per partition through the metrics registry.
type RecoveryReport struct {
	// Records counts the units of recovery work: WAL records replayed,
	// tree pages warmed, allocator chunks classified.
	Records int64
}

// RecoveryReporter is implemented by engines that expose a RecoveryReport
// (all six engines do, via Base).
type RecoveryReporter interface {
	RecoveryReport() RecoveryReport
}

// ParallelChunks splits [0, n) into one contiguous stripe per worker and
// runs fn(lo, hi) for each stripe on its own goroutine, returning the first
// error by stripe order. workers <= 0 picks the number of CPUs, capped at 8,
// so co-recovering partitions cannot oversubscribe a small machine. Its use
// is partition-level recovery: each partition owns its device, so stripes
// share nothing. An engine's own recovery runs on the recovering goroutine.
func ParallelChunks(workers, n int, fn func(lo, hi int) error) error {
	if workers <= 0 {
		workers = min(runtime.NumCPU(), 8)
	}
	workers = min(workers, n)
	if workers == 1 {
		return fn(0, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(n*w/workers, n*(w+1)/workers)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
