package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestParallelChunksFollowsGOMAXPROCS: the default pool is sized by the
// processors the process may use, not by the machine's: under GOMAXPROCS(1),
// workers <= 0 runs [0, n) as one stripe on the calling goroutine.
func TestParallelChunksFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	caller := goroutineID()
	var mu sync.Mutex
	var stripes [][2]int
	var ran []string
	err := ParallelChunks(0, 8, func(lo, hi int) error {
		mu.Lock()
		defer mu.Unlock()
		stripes = append(stripes, [2]int{lo, hi})
		ran = append(ran, goroutineID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 1 || stripes[0] != [2]int{0, 8} || ran[0] != caller {
		t.Fatalf("stripes %v on goroutines %v, want one stripe [0 8] on the caller's, goroutine %s", stripes, ran, caller)
	}
}
