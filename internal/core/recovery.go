package core

// RecoveryReport summarizes an engine's last recovery pass: how much log or
// metadata it had to process. Engines fill it during Open; the testbed and
// the serving runtime surface it per partition through the metrics registry.
type RecoveryReport struct {
	// Records counts the units of recovery work: WAL records replayed,
	// tree pages warmed, allocator chunks classified.
	Records int64
}

// RecoveryReporter is implemented by engines that expose a RecoveryReport
// (all six engines do, via Base).
type RecoveryReporter interface {
	RecoveryReport() RecoveryReport
}
