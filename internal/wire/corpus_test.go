package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateSeedCorpus regenerates testdata/fuzz/FuzzWireFrame from the
// sample messages when WIRE_GEN_CORPUS=1 is set; otherwise it requires every
// checked-in file to equal, byte for byte, a fresh encoding of its sample.
// The corpus is the wire format's golden copy: a codec change that moves one
// byte of any sample message fails here.
func TestGenerateSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireFrame")
	var seeds [][]byte
	var names []string
	for i, req := range sampleRequests() {
		payload, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, AppendFrame(nil, payload))
		names = append(names, fmt.Sprintf("seed-req-%s-%d", req.Op, i))
	}
	for i, resp := range sampleResponses() {
		payload, err := EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, AppendFrame(nil, payload))
		names = append(names, fmt.Sprintf("seed-resp-%d", i))
	}
	// A response whose four counts are over-long uvarints (80 00 for 0): the
	// decoder must refuse them, since their canonical re-encoding is shorter.
	overlong := []byte{1, 0, 0, 2, 4}
	for i := 0; i < 4; i++ {
		overlong = append(overlong, 0x80, 0, 0)
	}
	seeds = append(seeds, AppendFrame(nil, nil), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, AppendFrame(nil, overlong))
	names = append(names, "seed-empty-frame", "seed-hostile-length", "seed-overlong-uvarint")

	if os.Getenv("WIRE_GEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			if err := os.WriteFile(filepath.Join(dir, names[i]), corpusFile(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus files to %s", len(seeds), dir)
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (run with WIRE_GEN_CORPUS=1 to regenerate): %v", err)
	}
	if len(entries) != len(seeds) {
		t.Errorf("seed corpus has %d files, the samples make %d", len(entries), len(seeds))
	}
	for i, seed := range seeds {
		got, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
			continue
		}
		if want := corpusFile(seed); !bytes.Equal(got, want) {
			t.Errorf("%s: checked-in bytes differ from a fresh encoding\n file %q\nfresh %q", names[i], got, want)
		}
	}
}

// corpusFile is the go-fuzz corpus file holding one []byte input.
func corpusFile(seed []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed))
}
