package pmfs

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"nstore/internal/nvm"
)

// TestNameLookupsLoadNothing: with 200 files and the CPU cache cold, a lookup
// by name — OpenFile, Exists, a miss, List — loads no line, and FileSize loads
// only its file's size line. Create, Remove and Rename, with the lines of the
// inodes they write warm, load nothing either: none scans the inode table.
// Create still takes the lowest free inode.
func TestNameLookupsLoadNothing(t *testing.T) {
	dev, fs := newFS(t, 4<<20)
	name := func(i int) string { return fmt.Sprintf("sst-%06d", i) }
	for i := 0; i < 200; i++ {
		if _, err := fs.Create(name(i)); err != nil {
			t.Fatal(err)
		}
	}
	loads := func(op string, want uint64, warm []int, fn func() error) {
		t.Helper()
		dev.EvictAll()
		for _, i := range warm {
			dev.Read(fs.inodeOff(i), make([]byte, inodeSize))
		}
		before := dev.Stats().Loads
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got := dev.Stats().Loads - before; got != want {
			t.Errorf("%s loaded %d lines, want %d", op, got, want)
		}
	}
	for _, i := range []int{0, 99, 199} {
		loads("OpenFile "+name(i), 0, nil, func() error {
			f, err := fs.OpenFile(name(i))
			if err == nil && f.ino != i {
				err = fmt.Errorf("opened inode %d, want %d", f.ino, i)
			}
			return err
		})
		loads("Exists "+name(i), 0, nil, func() error {
			if !fs.Exists(name(i)) {
				return ErrNotExist
			}
			return nil
		})
		loads("FileSize "+name(i), 1, nil, func() error {
			_, err := fs.FileSize(name(i))
			return err
		})
	}
	loads("a miss", 0, nil, func() error {
		if fs.Exists("sst-999999") {
			return ErrExist
		}
		return nil
	})
	loads("List", 0, nil, func() error {
		if got := fs.List(); len(got) != 200 || got[0] != name(0) || got[199] != name(199) {
			return fmt.Errorf("List = %d names", len(got))
		}
		return nil
	})
	loads("Remove "+name(37), 0, []int{37}, func() error { return fs.Remove(name(37)) })
	loads("Remove "+name(120), 0, []int{120}, func() error { return fs.Remove(name(120)) })
	loads("Create", 0, []int{37}, func() error {
		f, err := fs.Create("wal-000001")
		if err == nil && f.ino != 37 {
			err = fmt.Errorf("took inode %d, want the lowest free, 37", f.ino)
		}
		return err
	})
	loads("Rename over a file", 0, []int{37, 150}, func() error { return fs.Rename("wal-000001", name(150)) })
	if f, err := fs.OpenFile(name(150)); err != nil || f.ino != 37 {
		t.Fatalf("after the rename %s is %v, %v; want inode 37", name(150), f, err)
	}
}

// scanNames reads the name table off the inode table, as Open does: which
// inodes are used, and by name the lowest inode holding it.
func scanNames(fs *FS) ([NumInodes]bool, map[string]int) {
	var used [NumInodes]bool
	names := map[string]int{}
	for i := NumInodes - 1; i >= 0; i-- {
		if fs.dev.ReadU64(fs.inodeOff(i)+inoFlags) == 1 {
			used[i] = true
			names[fs.readName(i)] = i
		}
	}
	return used, names
}

// checkNames compares fs's name table and List with a scan of its inodes.
func checkNames(fs *FS) error {
	used, names := scanNames(fs)
	for i := range used {
		if fs.used[i] != used[i] {
			return fmt.Errorf("inode %d: the table calls it used %v, the inode %v", i, fs.used[i], used[i])
		}
	}
	if !maps.Equal(fs.names, names) {
		return fmt.Errorf("the table names %v, the inodes %v", fs.names, names)
	}
	var want []string
	for n := range names {
		want = append(want, n)
	}
	slices.Sort(want)
	if got := fs.List(); !slices.Equal(got, want) {
		return fmt.Errorf("List = %v, the inodes hold %v", got, want)
	}
	return nil
}

// TestNamesMatchInodeTable: over seeded schedules of Create, Remove and
// Rename (over an existing file or not), the name table and List equal a scan
// of the inode table after every step, and after a crash at a random
// fence — reordered and torn write-backs, and in every fourth schedule inside
// a Create, between its name and its used flag or at the flag's own fence —
// followed by Open. 40 schedules from -seed, 10 under -short.
func TestNamesMatchInodeTable(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for s := 0; s < n; s++ {
		seed := *seedFlag + int64(s)
		if err := namesSchedule(seed); err != nil {
			t.Fatalf("seed %d: %v (replay: go test ./internal/pmfs/ -run 'TestNamesMatchInodeTable$' -seed=%d)", seed, err, *seedFlag)
		}
	}
}

// namesSchedule runs one seeded schedule: a few rounds, each of random name
// operations ended by a crash and Open.
func namesSchedule(seed int64) (err error) {
	rng := rand.New(rand.NewSource(seed))
	dev := nvm.NewDevice(nvm.DefaultConfig(2 << 20))
	fs := Format(dev, 0, 2<<20, Config{ExtentSize: 4096})
	name := func() string { return fmt.Sprintf("f%02d", rng.Intn(24)) }
	existing := func() (string, bool) {
		l := fs.List()
		if len(l) == 0 {
			return "", false
		}
		return l[rng.Intn(len(l))], true
	}
	for round := 0; round < 4; round++ {
		ops := 5 + rng.Intn(30)
		crashAt := rng.Intn(ops)
		tornCreate := round == 0 && seed%4 == 0
		// run ends at the crash, or at the first fault it sees before.
		run := func() error {
			for op := 0; ; op++ {
				kind := rng.Intn(3)
				if op == crashAt || op > crashAt && tornCreate {
					mode := nvm.FaultReorder + nvm.FaultMode(rng.Intn(2))
					after := rng.Intn(3)
					if tornCreate {
						kind, after = 0, rng.Intn(2)
					}
					dev.InjectFaults(nvm.FaultPlan{Seed: rng.Int63(), Mode: mode, CrashAfterFences: after, KeepProb: 0.5, TearProb: 0.5})
				}
				switch kind {
				case 0:
					n := name()
					if tornCreate {
						n = fmt.Sprintf("torn%d", op)
					}
					if _, err := fs.Create(n); err != nil && err != ErrExist {
						return fmt.Errorf("round %d, op %d: create %s: %v", round, op, n, err)
					}
				case 1:
					if n, ok := existing(); ok {
						if err := fs.Remove(n); err != nil {
							return fmt.Errorf("round %d, op %d: remove %s: %v", round, op, n, err)
						}
					}
				case 2:
					if n, ok := existing(); ok {
						if err := fs.Rename(n, name()); err != nil {
							return fmt.Errorf("round %d, op %d: rename %s: %v", round, op, n, err)
						}
					}
				}
				if err := checkNames(fs); err != nil {
					return fmt.Errorf("round %d, op %d: %v", round, op, err)
				}
			}
		}
		if _, err := nvm.Crashed(run); err != nil {
			return err
		}
		dev.Crash()
		if fs, err = Open(dev, 0); err != nil {
			return fmt.Errorf("round %d: Open after the crash: %v", round, err)
		}
		if err := checkNames(fs); err != nil {
			return fmt.Errorf("round %d, after the crash and Open: %v", round, err)
		}
	}
	return nil
}
