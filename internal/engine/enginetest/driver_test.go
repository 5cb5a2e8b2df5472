package enginetest

import (
	"errors"
	"strings"
	"testing"

	"nstore/internal/core"
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
