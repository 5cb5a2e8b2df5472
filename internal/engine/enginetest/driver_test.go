package enginetest

import (
	"errors"
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/engine/inp"
	"nstore/internal/engine/nvminp"
)

// TestReplayNamesTheTest: a failed schedule's replay line selects the test it
// failed in and nothing else — each level of the name anchored — so that
// replaying it does not also run TestConcurrentRecoveryConformance's
// schedules, say.
func TestReplayNamesTheTest(t *testing.T) {
	f := Factory{
		Name: "nvm-inp",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return nvminp.New(env, schemas, opts)
		},
		Open: func(*core.Env, []*core.Schema, core.Options) (core.Engine, error) {
			return nil, errors.New("refusing to recover")
		},
	}
	t.Run("nvm-inp", func(t *testing.T) {
		err := seedLoop(t.Name(), 7, 3, withFamily(f, recoverySchedule))
		want := "go test -run '^TestReplayNamesTheTest$/^nvm-inp$' -seed=7"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("failure %q does not carry the replay line %q", err, want)
		}
		if !strings.Contains(err.Error(), "refusing to recover") {
			t.Fatalf("failure %q does not carry the schedule's error", err)
		}
	})
}

// TestMidRecoveryFaultFires: the concurrent-recovery battery's device fault
// lands inside the engine's recovery, at a fence drawn from the ones the
// control recovery took, on every device-family schedule of inp's -short
// block. The fsync families' share is logged: inp's recovery replays its WAL
// into memory and syncs nothing, so their fault, armed on the filesystem
// recovery opens, has no fsync to fire at.
func TestMidRecoveryFaultFires(t *testing.T) {
	f := Factory{
		Name: "inp",
		New: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return inp.New(env, schemas, opts)
		},
		Open: func(env *core.Env, schemas []*core.Schema, opts core.Options) (core.Engine, error) {
			return inp.Open(env, schemas, opts)
		},
		Volatile: true,
	}
	fired := firings{}
	if err := seedLoop(t.Name(), BaseSeed(), 40, withFamily(f, fired.concurrent)); err != nil {
		t.Fatal(err)
	}
	for _, fam := range conformanceFamilies(true) {
		n := fired[fam.name]
		t.Logf("%s: fired mid-recovery on %d of %d schedules", fam.name, n[1], n[0])
		if fam.device != nil && n[1] != n[0] {
			t.Errorf("%s: fired mid-recovery on %d of %d schedules, want all", fam.name, n[1], n[0])
		}
	}
}
