package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"nstore/internal/obs"
)

// WriteSnapshot writes measurements to path as an obs.Snapshot, the same
// JSON schema the serving runtime's /metrics endpoint exposes, so one set
// of tooling can consume live scrapes and benchmark artifacts alike. Each
// measurement contributes a `<base>_txn_per_sec` gauge plus counters for
// the NVM traffic it generated, where base encodes the configuration
// (workload, engine, mixture, skew, latency — empty parts skipped; the flat
// metric namespace spells '-' as '_').
func WriteSnapshot(path, workload string, ms []Measurement) error {
	reg := obs.New()
	for _, m := range ms {
		parts := []string{workload, string(m.Engine)}
		for _, p := range []string{m.Mix, m.Skew, m.Latency} {
			if p != "" {
				parts = append(parts, p)
			}
		}
		base := strings.ReplaceAll(strings.Join(parts, "_"), "-", "_")
		reg.Gauge(base + "_txn_per_sec").Set(m.Throughput)
		reg.Gauge(base + "_elapsed_ns").Set(float64(m.Elapsed))
		reg.Counter(base + "_loads").Add(int64(m.Loads))
		reg.Counter(base + "_stores").Add(int64(m.Stores))
		reg.Counter(base + "_bytes_read").Add(int64(m.BytesRead))
		reg.Counter(base + "_bytes_written").Add(int64(m.BytesWritten))
	}
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
