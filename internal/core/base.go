package core

import (
	"fmt"
	"sync"
)

// TableMeta identifies a registered table inside an engine.
type TableMeta struct {
	ID     int
	Schema *Schema
	secIdx map[string]int // index name -> position in Schema.Secondary
}

// SecPos returns the position of a named secondary index.
func (t *TableMeta) SecPos(name string) (int, bool) {
	i, ok := t.secIdx[name]
	return i, ok
}

// Base carries the state common to all six engines: the partition
// environment, the table registry, the transaction state machine, the
// engine exclusion, and the execution-time breakdown.
type Base struct {
	Env    *Env
	Tables []*TableMeta
	byName map[string]*TableMeta
	InTx   bool
	TxnID  uint64 // monotonically increasing transaction id
	Bd     Breakdown
	// Rec summarizes the engine's last recovery pass (zero for engines
	// built fresh with New).
	Rec  RecoveryReport
	excl Exclusion
}

// Exclusion serializes everything that touches an engine's device. A
// transaction holds it from BeginTx to EndTx; Flush and every other
// owner-side entry point outside a transaction hold it for the call
// (Base.Exclude); a snapshot read holds it while it reads the engine and
// rolls the result back to its timestamp (mvcc.View). So a reader never sees a
// transaction half applied and waits for at most the one in flight. Retire
// shuts readers out for good once the device is power-cycled.
type Exclusion struct {
	mu      sync.Mutex
	retired bool // guarded by mu
}

// Lock and Unlock take and release the exclusion.
func (x *Exclusion) Lock()   { x.mu.Lock() }
func (x *Exclusion) Unlock() { x.mu.Unlock() }

// Enter takes the exclusion for a reader; ErrRetired once the engine was
// retired. Unlock releases it.
func (x *Exclusion) Enter() error {
	x.mu.Lock()
	if x.retired {
		x.mu.Unlock()
		return ErrRetired
	}
	return nil
}

// Excluder is implemented by engines with an exclusion (every engine, through
// Base): owner-side code that reads an engine outside a transaction — a state
// digest, a live-bytes scan — takes it so no snapshot reader shares the
// device meanwhile.
type Excluder interface {
	Exclusion() *Exclusion
	Exclude() (release func())
	Retire()
}

// InitBase prepares the registry for the given schemas (table ID = position).
func (b *Base) InitBase(env *Env, schemas []*Schema) {
	b.Env = env
	b.byName = make(map[string]*TableMeta, len(schemas))
	for i, s := range schemas {
		tm := &TableMeta{ID: i, Schema: s, secIdx: make(map[string]int)}
		for j, ix := range s.Secondary {
			tm.secIdx[ix.Name] = j
		}
		b.Tables = append(b.Tables, tm)
		b.byName[s.Name] = tm
	}
}

// Table resolves a table by name.
func (b *Base) Table(name string) (*TableMeta, error) {
	tm, ok := b.byName[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", name)
	}
	return tm, nil
}

// BeginTx starts a transaction and takes the exclusion, waiting for a
// snapshot read in progress.
func (b *Base) BeginTx() error {
	if b.InTx {
		return ErrInTxn
	}
	b.excl.Lock()
	b.InTx = true
	b.TxnID++
	return nil
}

// EndTx finishes a transaction and releases the exclusion.
func (b *Base) EndTx() error {
	if !b.InTx {
		return ErrNoTxn
	}
	b.InTx = false
	b.excl.Unlock()
	return nil
}

// Exclusion returns the engine's exclusion, for the version store's views.
func (b *Base) Exclusion() *Exclusion { return &b.excl }

// Exclude takes the exclusion for an owner-side call outside a transaction
// and returns its release. Inside the owner's transaction the exclusion is
// held already and Exclude is a no-op. Owner goroutine only.
func (b *Base) Exclude() (release func()) {
	if b.InTx {
		return func() {}
	}
	b.excl.Lock()
	return b.excl.Unlock
}

// Retire shuts snapshot readers out of the engine for good: its device is
// being power-cycled, and what the engine holds in memory no longer matches
// the medium. It waits for a read in progress. A transaction the power cycle
// cut short (an injected crash panics out of the engine) still holds the
// exclusion; it is ended here. Owner goroutine only.
func (b *Base) Retire() {
	if b.InTx {
		b.InTx = false
	} else {
		b.excl.Lock()
	}
	b.excl.retired = true
	b.excl.Unlock()
}

// RequireTx fails unless a transaction is running.
func (b *Base) RequireTx() error {
	if !b.InTx {
		return ErrNoTxn
	}
	return nil
}

// Breakdown returns the engine's component timers.
func (b *Base) Breakdown() *Breakdown { return &b.Bd }

// RecoveryReport returns the stats of the engine's last recovery pass.
func (b *Base) RecoveryReport() RecoveryReport { return b.Rec }

// Environment returns the partition environment the engine runs on.
func (b *Base) Environment() *Env { return b.Env }
