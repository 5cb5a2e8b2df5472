package lsm

import (
	"fmt"
	"time"

	"nstore/internal/core"
)

// RunStages runs the tail of the flush pipeline (the NoKV-style stage
// machine) inline, on the caller's goroutine: build, then install, then
// release, each skipped when nil, adding each stage's wall time to st. The
// prepare stage — freezing the memtable and rotating the WAL segment, which
// must happen before the next transaction appends — runs at the trigger point
// before it, timed by the engine. A build or install failure skips the stages
// after it and leaves the prepared state (frozen memtable, retained WAL
// segment) intact for retry: acked commits stay durable via the WAL segment
// that release would have deleted. kind ("flush", "compact", "gc") names the
// task in the error.
func RunStages(st *core.FlushStats, kind string, build, install, release func() error) error {
	for _, s := range []struct {
		name string
		ns   *int64
		fn   func() error
	}{{"build", &st.BuildNs, build}, {"install", &st.InstallNs, install}, {"release", &st.ReleaseNs, release}} {
		if s.fn == nil {
			continue
		}
		start := time.Now()
		err := s.fn()
		*s.ns += time.Since(start).Nanoseconds()
		if err != nil {
			return fmt.Errorf("lsm: %s %s: %w", kind, s.name, err)
		}
	}
	return nil
}

// MergeSet is the size-ratio merge rule: given the key counts of the
// immutable runs, newest first, it returns how many of the newest runs to merge
// into one. The set starts at the newest run and takes in the next older run
// while that run holds at most k times the keys gathered so far. A result below
// two means "merge nothing". The run that stops a set holds more than k times
// the set's keys, and so more than k times the merged run's, so a merge never
// makes the rule want another.
func MergeSet(keys []int, k int) int {
	if len(keys) == 0 {
		return 0
	}
	n, gathered := 1, keys[0]
	for n < len(keys) && keys[n] <= k*gathered {
		gathered += keys[n]
		n++
	}
	return n
}
