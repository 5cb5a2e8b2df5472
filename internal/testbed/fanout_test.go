package testbed_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nstore/internal/core"
	"nstore/internal/nvm"
	"nstore/internal/pmfs"
	"nstore/internal/testbed"
	"nstore/internal/workload/tpcc"
	"nstore/internal/workload/ycsb"
)

// settle waits for the goroutine count to fall back to base: a fan-out's
// workers may still be exiting for a moment after it returned.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the fan-out", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEachPartitionLowestError: partitions 3 and 7 fail, 7 the slowest. On
// every run the error is partition 3's, every partition below it ran, and
// every call that started has finished by the time EachPartition returns.
func TestEachPartitionLowestError(t *testing.T) {
	db, err := testbed.New(testbed.Config{Engine: testbed.NVMInP, Partitions: 8,
		Env: core.EnvConfig{DeviceSize: 16 << 20}, Schemas: tpcc.Schemas()})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		var started, finished [8]atomic.Bool
		err := db.EachPartition(func(p int) error {
			started[p].Store(true)
			defer finished[p].Store(true)
			switch p {
			case 3:
				return fmt.Errorf("partition %d refused", p)
			case 7:
				time.Sleep(5 * time.Millisecond)
				return fmt.Errorf("partition %d refused", p)
			}
			return nil
		})
		if err == nil || err.Error() != "partition 3 refused" {
			t.Fatalf("run %d: %v, want partition 3's error", run, err)
		}
		for p := range started {
			if p <= 3 && !started[p].Load() {
				t.Fatalf("run %d: partition %d never ran", run, p)
			}
			if started[p].Load() && !finished[p].Load() {
				t.Fatalf("run %d: partition %d still running after EachPartition returned", run, p)
			}
		}
		settle(t, base)
	}
}

// TestNewRefusedByEveryPartition: a configuration every partition refuses
// fails New with partition 0's error on every run, on all six engines, and
// leaves no goroutine behind.
func TestNewRefusedByEveryPartition(t *testing.T) {
	base := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		kind := testbed.Kinds[run%len(testbed.Kinds)]
		_, err := testbed.New(testbed.Config{Engine: kind, Partitions: 8,
			Env: core.EnvConfig{DeviceSize: 16 << 20}, Options: core.Options{RecoveryParallelism: 2},
			Schemas: tpcc.Schemas()})
		if err == nil || !strings.HasPrefix(err.Error(), "testbed: partition 0: ") || !strings.Contains(err.Error(), "RecoveryParallelism") {
			t.Fatalf("run %d (%s): %v, want partition 0's refusal", run, kind, err)
		}
		settle(t, base)
	}
}

// TestUndersizedDeviceIsAnError: a device too small for its filesystem share
// or its arena fails New, before any partition is built, and Attach with an
// error that names the sizes, where formatting or opening it would panic on
// a fan-out worker and end the process.
func TestUndersizedDeviceIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		env  core.EnvConfig
		kind testbed.EngineKind
		want string
	}{
		{"filesystem", core.EnvConfig{DeviceSize: 4 << 20}, testbed.NVMInP,
			"a 4194304 B device gives its filesystem 209715 B, under the 528384 B"},
		{"arena", core.EnvConfig{DeviceSize: 4 << 20, FSFraction: 0.9999}, testbed.InP,
			"a 4194304 B device gives its arena 420 B"},
	} {
		_, err := testbed.New(testbed.Config{Engine: c.kind, Partitions: 2, Env: c.env, Schemas: tpcc.Schemas()})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New with an undersized %s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A filesystem that claims the whole device leaves its arena nothing.
	for _, kind := range []testbed.EngineKind{testbed.InP, testbed.NVMInP} {
		dev := nvm.NewDevice(nvm.DefaultConfig(4 << 20))
		pmfs.Format(dev, 0, dev.Size(), pmfs.Config{})
		_, err := testbed.Attach(testbed.Config{Engine: kind, Schemas: tpcc.Schemas()}, []*nvm.Device{dev})
		if want := "a 4194304 B device gives its arena 0 B"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Attach (%s) of a device with no arena: %v, want an error containing %q", kind, err, want)
		}
	}
}

// TestLoadReturnsLowestPartitionError: loading a workload into a database
// built without its tables fails on every partition; each loader returns
// partition 0's error, naming the partition, on every run and leaves no
// goroutine behind.
func TestLoadReturnsLowestPartitionError(t *testing.T) {
	loads := []struct {
		name, prefix string
		schemas      []*core.Schema
		load         func(*testbed.DB) error
	}{
		{"ycsb", "ycsb: partition 0: ", tpcc.Schemas(), func(db *testbed.DB) error {
			return ycsb.Load(db, ycsb.Config{Tuples: 64, Partitions: 8, Seed: 42})
		}},
		{"tpcc", "tpcc: partition 0: ", ycsb.Schema(ycsb.Config{}), func(db *testbed.DB) error {
			return tpcc.Load(db, tpcc.Config{Warehouses: 8, Districts: 1, Customers: 4, Items: 8, Partitions: 8, Seed: 42})
		}},
	}
	for _, l := range loads {
		t.Run(l.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for run := 0; run < 20; run++ {
				db, err := testbed.New(testbed.Config{Engine: testbed.NVMInP, Partitions: 8,
					Env: core.EnvConfig{DeviceSize: 16 << 20}, Schemas: l.schemas})
				if err != nil {
					t.Fatal(err)
				}
				err = l.load(db)
				if err == nil || !strings.HasPrefix(err.Error(), l.prefix) || !strings.Contains(err.Error(), "unknown table") {
					t.Fatalf("run %d: %v, want %q and an unknown table", run, err, l.prefix)
				}
				settle(t, base)
			}
		})
	}
}
