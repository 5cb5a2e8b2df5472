package nvm

import (
	"errors"
	"fmt"
	"slices"
)

// The fence walk: where a seeded fault plan samples crash points, the walk
// visits every one a step has. A step is a sequence of fence intervals, and a
// crash can only matter between two fences: at fence k the lines written
// since fence k-1 are the un-fenced set, any subset of which may have reached
// the medium. The walk tries three kinds of subset per window — none, all,
// and each line alone, which is what a protocol that assumed an order between
// two lines of one interval cannot survive. The last window is the one after
// the step has returned.

// Crashed runs fn and reports whether an injected crash (ErrInjectedCrash,
// panicked or returned) cut it short. Any other panic goes on up.
func Crashed(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if rerr, ok := r.(error); !ok || !errors.Is(rerr, ErrInjectedCrash) {
				panic(r)
			}
			crashed, err = true, nil
		}
	}()
	if err = fn(); errors.Is(err, ErrInjectedCrash) {
		return true, nil
	}
	return false, err
}

// WalkFences crashes a step at each of its fences and checks every crash
// state. build returns a fresh device and the step to run on it; the walk
// calls it once to count the step's fences on a run with no crash, then once
// for each fence k of them, and once more, k equal to the count, for a crash
// after the step has returned. Each pass crashes the step at fence k, before
// that fence orders anything, and calls check on a copy of the medium once
// for each outcome of the un-fenced lines: all lost, all kept, and each kept
// alone. A panic inside check is that outcome's failure. WalkFences returns
// the step's fence count and the first failure, which names k and the
// surviving lines. On a device that build gave a deleted fence (DropFence)
// the walk starts behind it: a crash at that fence or before it leaves what
// it leaves with every fence.
func WalkFences(build func() (*Device, func() error, error), check func(k, fences int, dev *Device) error) (fences int, err error) {
	d, step, err := build()
	if err != nil {
		return 0, err
	}
	from, start := d.dropFence, d.Stats().Fences
	if crashed, err := Crashed(step); crashed || err != nil {
		return 0, fmt.Errorf("uninterrupted: crashed %v: %w", crashed, err)
	}
	fences = int(d.Stats().Fences - start)
	for k := from; k <= fences; k++ {
		if err := crashAt(build, check, k, fences); err != nil {
			return fences, fmt.Errorf("crash at fence %d of %d: %w", k, fences, err)
		}
	}
	return fences, nil
}

// crashAt runs one pass of the walk: the step crashed at fence k, and check
// on every outcome of its un-fenced lines.
func crashAt(build func() (*Device, func() error, error), check func(k, fences int, dev *Device) error, k, fences int) error {
	d, step, err := build()
	if err != nil {
		return err
	}
	d.InjectFaults(FaultPlan{Mode: FaultLoseAll, CrashAfterFences: k})
	crashed, err := Crashed(step)
	switch {
	case err != nil:
		return err
	case k < fences && !crashed:
		return fmt.Errorf("the step ended before its fence %d", k)
	case k == fences && crashed:
		return fmt.Errorf("the step ran past its %d fences", fences)
	}
	var unfenced []unfencedLine
	d.Unfenced(func(line int64, buf []byte) {
		unfenced = append(unfenced, unfencedLine{line, slices.Clone(buf)})
	})
	outcomes := [][]unfencedLine{nil, unfenced}
	for i := range unfenced {
		outcomes = append(outcomes, unfenced[i:i+1])
	}
	for _, kept := range outcomes {
		if err := checkKept(d, kept, func(dev *Device) error { return check(k, fences, dev) }); err != nil {
			lines := make([]string, len(kept))
			for i, kl := range kept {
				lines[i] = fmt.Sprintf("%#x", kl.line)
			}
			return fmt.Errorf("surviving %d of %d un-fenced lines %v: %w", len(kept), len(unfenced), lines, err)
		}
	}
	return nil
}

// unfencedLine is an un-fenced line write-back that an outcome keeps.
type unfencedLine struct {
	line int64
	data []byte
}

// checkKept runs check on a copy of the crashed device's medium holding the
// kept lines.
func checkKept(crashed *Device, kept []unfencedLine, check func(dev *Device) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check panicked: %v", r)
		}
	}()
	dev := crashed.CloneMedium()
	for _, kl := range kept {
		copy(dev.data[kl.line:], kl.data)
	}
	return check(dev)
}
