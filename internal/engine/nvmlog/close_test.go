package nvmlog

import (
	"strings"
	"sync"
	"testing"

	"nstore/internal/core"
)

func bigSchema() []*core.Schema {
	return []*core.Schema{{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Type: core.TInt},
			{Name: "a", Type: core.TInt},
			{Name: "b", Type: core.TString, Size: 16 << 10},
		},
	}}
}

func bigRow(i int64, n int) []core.Value {
	pat := strings.Repeat(string(rune('a'+i%26)), n)
	return []core.Value{core.IntVal(i), core.IntVal(i * 2), core.StrVal(pat)}
}

// TestCloseMidRotation closes the engine while the background worker owns
// queued rotation/compaction work; meaningful under -race. Acked commits
// are NVM-durable at commit, so everything acked must survive reopen.
func TestCloseMidRotation(t *testing.T) {
	for round := 0; round < 4; round++ {
		env := core.NewEnv(core.EnvConfig{DeviceSize: 512 << 20})
		opts := core.Options{MemTableCap: 16, LSMGrowth: 2, FlushWorkers: 1}
		e, err := New(env, bigSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var acked int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := int64(1); i <= 400; i++ {
				if err := e.Begin(); err != nil {
					return
				}
				if err := e.Insert("t", uint64(i), bigRow(i, 400)); err != nil {
					_ = e.Abort()
					return
				}
				if err := e.Commit(); err != nil {
					return
				}
				mu.Lock()
				acked = i
				mu.Unlock()
			}
		}()
		for {
			mu.Lock()
			n := acked
			mu.Unlock()
			if n >= int64(20+40*round) {
				break
			}
			select {
			case <-done:
			default:
				continue
			}
			break
		}
		if err := e.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		<-done
		mu.Lock()
		n := acked
		mu.Unlock()

		env.Dev.Crash()
		env2, err := env.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Open(env2, bigSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= n; i++ {
			if _, ok, err := e2.Get("t", uint64(i)); !ok || err != nil {
				t.Fatalf("round %d: acked key %d lost after Close (%v)", round, i, err)
			}
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
