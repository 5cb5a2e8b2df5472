package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// toyPublish is the smallest ordered protocol: a line of data, the fence
// that makes it durable when ordered is set, then a flag that publishes it
// and the flag's own fence.
func toyPublish(ordered bool) func() (*Device, func() error, error) {
	return func() (*Device, func() error, error) {
		d := testDev()
		return d, func() error {
			d.Write(0, bytes.Repeat([]byte{0xda}, LineSize))
			d.WriteBack(0, LineSize)
			if ordered {
				d.Fence()
			}
			d.WriteU64(LineSize, 1)
			d.WriteBack(LineSize, 8)
			d.Fence()
			return nil
		}, nil
	}
}

// toyCheck: a set flag publishes the whole data line; once the step has
// returned, the flag is set.
func toyCheck(k, fences int, dev *Device) error {
	flag := dev.ReadU64(LineSize)
	if k == fences && flag != 1 {
		return errors.New("the step returned, yet its flag is not durable")
	}
	if flag == 1 && !dev.DurableEqual(0, bytes.Repeat([]byte{0xda}, LineSize)) {
		return errors.New("the flag is set over data that did not survive")
	}
	return nil
}

// TestWalkFencesPassesOrderedProtocol: the data's fence orders it before the
// flag, so every crash state the walk builds holds.
func TestWalkFencesPassesOrderedProtocol(t *testing.T) {
	fences, err := WalkFences(toyPublish(true), toyCheck)
	if err != nil {
		t.Fatal(err)
	}
	if fences != 2 {
		t.Fatalf("the walk counted %d fences, want 2", fences)
	}
}

// TestWalkFencesCatchesMissingFence: without the data's fence the flag's
// line can reach the medium alone, and the walk names that crash state: the
// step's one fence and the flag's line, the only one kept.
func TestWalkFencesCatchesMissingFence(t *testing.T) {
	_, err := WalkFences(toyPublish(false), toyCheck)
	if err == nil {
		t.Fatal("the walk passed a flag published with no fence before it")
	}
	want := fmt.Sprintf("crash at fence 0 of 1: surviving 1 of 2 un-fenced lines [%#x]", LineSize)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("failure %q does not name %q", err, want)
	}
}

// TestWalkFencesChecksEveryWindow: check sees every fence and the window
// after the step, each with its three kinds of outcome, and a panic in check
// is that outcome's failure.
func TestWalkFencesChecksEveryWindow(t *testing.T) {
	calls := map[int]int{}
	if _, err := WalkFences(toyPublish(true), func(k, fences int, dev *Device) error {
		calls[k]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Fence 0: the data line un-fenced (none, all, it alone); fence 1: the
	// flag's line; after the step: nothing un-fenced (none, all).
	if want := map[int]int{0: 3, 1: 3, 2: 2}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("check ran %v times per fence, want %v", calls, want)
	}
	_, err := WalkFences(toyPublish(true), func(k, fences int, dev *Device) error {
		if k == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "crash at fence 1 of 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("a panicking check reported %v", err)
	}
}

// TestWalkFencesStartsBehindDroppedFence: with the data's fence deleted
// (DropFence), the walk crashes nothing at it, whose states are the walk's
// with every fence, and catches the flag's line kept alone behind it.
func TestWalkFencesStartsBehindDroppedFence(t *testing.T) {
	calls := map[int]int{}
	_, err := WalkFences(func() (*Device, func() error, error) {
		d, step, err := toyPublish(true)()
		d.DropFence(0)
		return d, step, err
	}, func(k, fences int, dev *Device) error {
		calls[k]++
		return toyCheck(k, fences, dev)
	})
	want := fmt.Sprintf("crash at fence 1 of 2: surviving 1 of 2 un-fenced lines [%#x]", LineSize)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("failure %v does not name %q", err, want)
	}
	if calls[0] != 0 {
		t.Fatalf("check ran %d times at the deleted fence", calls[0])
	}
}

// TestCrashed: an injected crash, panicked or returned, is caught and
// reported; an ordinary error is returned as it is.
func TestCrashed(t *testing.T) {
	d := testDev()
	d.InjectFaults(FaultPlan{CrashAfterFences: 1})
	crashed, err := Crashed(func() error {
		d.Fence()
		d.Fence()
		return errors.New("ran past the crash")
	})
	if !crashed || err != nil {
		t.Fatalf("panicked crash: crashed %v, err %v", crashed, err)
	}
	if crashed, err = Crashed(func() error { return fmt.Errorf("wrapped: %w", ErrInjectedCrash) }); !crashed || err != nil {
		t.Fatalf("returned crash: crashed %v, err %v", crashed, err)
	}
	if crashed, err = Crashed(func() error { return errors.New("plain") }); crashed || err == nil {
		t.Fatalf("plain error: crashed %v, err %v", crashed, err)
	}
}
