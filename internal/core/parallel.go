package core

import (
	"runtime"
	"sync"
)

// ParallelChunks splits [0, n) into one contiguous stripe per worker and
// runs fn(lo, hi) for each stripe on its own goroutine. It waits for every
// stripe, then returns the first error by stripe order. workers <= 0 picks
// the processors the process may use (GOMAXPROCS), capped at 8, so the
// partitions of one database cannot oversubscribe a small machine or a
// process limited to fewer processors than the machine has.
//
// It is the fan-out for per-partition work: each partition owns its device
// and engine, so stripes share nothing, and a stripe visits its partitions in
// index order on one goroutine. Its users are testbed.DB's build (New),
// attach (Attach), flush (Flush) and recovery (Recover), the ycsb and tpcc
// loaders (through DB.EachPartition), and serve.Runtime.RecoverAll.
func ParallelChunks(workers, n int, fn func(lo, hi int) error) error {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
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
