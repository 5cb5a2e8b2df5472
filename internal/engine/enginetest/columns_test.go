package enginetest

import (
	"strings"
	"testing"

	"nstore/internal/core"
	"nstore/internal/txn2pc"
	"nstore/internal/workload/tpcc"
)

// TestIndexColsHonest runs the Cols honesty property over every schema the
// batteries and the benchmark drive the engines with. Replay one seed with
// -seed=N.
func TestIndexColsHonest(t *testing.T) {
	sets := map[string][]*core.Schema{
		"conformance": testSchema(),
		"cross-shard": txn2pc.AugmentSchemas(crossSchema()),
		"budget":      budgetSchema(),
		"tpcc":        tpcc.Schemas(),
	}
	for name, schemas := range sets {
		for i := int64(0); i < 4; i++ {
			if err := CheckIndexCols(schemas, BaseSeed()+i); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestIndexColsCatchesOmission: the property has teeth — an index whose Cols
// leaves out a column its SecKey reads is reported, by column.
func TestIndexColsCatchesOmission(t *testing.T) {
	schemas := testSchema()
	ix := &schemas[0].Secondary[0]
	ix.SecKey = func(row []core.Value) uint32 { return uint32(row[1].I) + uint32(len(row[2].S)) }
	err := CheckIndexCols(schemas, BaseSeed())
	if err == nil || !strings.Contains(err.Error(), "column 2 (name)") {
		t.Fatalf("an index that reads an undeclared column passed: %v", err)
	}
	ix.Cols = []int{1, 9}
	if err := CheckIndexCols(schemas, BaseSeed()); err == nil {
		t.Fatal("a Cols entry past the last column passed")
	}
}
