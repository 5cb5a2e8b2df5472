package core

import (
	"errors"
	"fmt"

	"nstore/internal/pmfs"
)

// Error taxonomy for the serving runtime. The engines surface failures from
// the durability boundary (fsync, allocator, device) as plain errors; this
// file gives callers — chiefly internal/serve's partition supervisor — a
// uniform way to decide between retrying a transaction, healing a partition
// via crash recovery, and giving up.
var (
	// ErrRetryable tags transient failures: the transaction did not commit,
	// the engine is still consistent, and re-running the transaction may
	// succeed (e.g. an fsync that failed before flushing anything).
	ErrRetryable = errors.New("retryable")

	// ErrCorrupt tags failures after which the engine's volatile state can
	// no longer be trusted; the only safe continuation is the engine's own
	// crash-recovery protocol (Crash + Reopen + Open).
	ErrCorrupt = errors.New("corrupt")
)

// ErrRetired fails a snapshot read of an engine whose device was
// power-cycled under it (Base.Retire). The partition recovers into a new
// engine instance; a read retried there succeeds, so the sentinel is tagged
// retryable.
var ErrRetired = Retryable(errors.New("core: engine retired by a power cycle"))

// taggedError attaches a classification sentinel to a cause. Unwrap returns
// both, so errors.Is matches the tag and the underlying error alike.
type taggedError struct {
	tag   error
	cause error
}

func (e *taggedError) Error() string   { return e.tag.Error() + ": " + e.cause.Error() }
func (e *taggedError) Unwrap() []error { return []error{e.tag, e.cause} }

// Retryable wraps err so IsRetryable reports true. Nil and already-tagged
// errors pass through unchanged.
func Retryable(err error) error {
	if err == nil || errors.Is(err, ErrRetryable) {
		return err
	}
	return &taggedError{tag: ErrRetryable, cause: err}
}

// Corrupt wraps err so IsCorrupt reports true. Nil and already-tagged errors
// pass through unchanged.
func Corrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return &taggedError{tag: ErrCorrupt, cause: err}
}

// IsRetryable reports whether err is tagged transient: safe to retry the
// transaction on the same engine instance after an Abort.
func IsRetryable(err error) bool { return errors.Is(err, ErrRetryable) }

// IsCorrupt reports whether err indicates the engine instance must be
// discarded and recovered from durable state.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// TxnError is the typed failure a supervisor reports for one transaction:
// which engine, which operation, whether the failure was a recovered panic,
// and the underlying cause. It unwraps to the cause so the taxonomy
// predicates (IsRetryable, IsCorrupt) and sentinel comparisons keep working.
type TxnError struct {
	Engine   string // engine kind, e.g. "nvm-inp"
	Op       string // operation at the failure point, e.g. "commit"
	Panicked bool   // true when the cause was recovered from a panic
	Err      error
}

func (e *TxnError) Error() string {
	kind := "error"
	if e.Panicked {
		kind = "panic"
	}
	return fmt.Sprintf("txn %s in %s/%s: %v", kind, e.Engine, e.Op, e.Err)
}

func (e *TxnError) Unwrap() error { return e.Err }

// ClassifyDurability classifies an error crossing the durability boundary
// (WAL flush, checkpoint sync, manifest install). Transient sync failures —
// the filesystem reported the fsync failed but flushed nothing, so the
// durable state is exactly what it was — become retryable. Already-tagged
// errors and everything else pass through for the caller to treat as fatal
// for this engine instance.
func ClassifyDurability(err error) error {
	if err == nil || errors.Is(err, ErrRetryable) || errors.Is(err, ErrCorrupt) {
		return err
	}
	if errors.Is(err, pmfs.ErrSyncFailed) {
		return Retryable(err)
	}
	return err
}
