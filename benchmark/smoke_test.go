package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMatchesCatalogue pins BENCHMARK.json to the catalogue in metrics.go
// (regenerate with `bash benchmark/run.sh -print-spec > BENCHMARK.json`).
func TestSpecMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json differs from -print-spec; regenerate it")
	}
}

// TestSpecWithinContract checks the limits the benchmark driver enforces
// before it runs anything.
func TestSpecWithinContract(t *testing.T) {
	sp := spec()
	raw := specJSON()
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q missing", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("unexpected keys %v", keys)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", sp.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must contain setup_s, unit s, lower is better")
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, c := range sp.Command {
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q leaves the checkout", c)
		}
	}
}

// TestSmoke runs every workload end to end and traced at 1/20 scale and
// checks the output contract: exit 0, a last line that is one JSON object
// with exactly the four keys, and every declared metric emitted exactly once,
// finite, with its declared unit. It asserts nothing about any measured value.
// Under -short (< 10 s) only one workload's traced run is exercised; the
// per-layer metrics and most of the traced path are the same for all four.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadDefs {
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs()} {
			w, trace, defs := w, trace, defs
			if testing.Short() && trace == 1 && w.Name != "nvm-engines" {
				continue
			}
			t.Run(w.Name+map[int]string{0: "/end-to-end", 1: "/traced"}[trace], func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "7", "-seconds", "0.75",
					"-trace", map[int]string{0: "0", 1: "1"}[trace],
					"-trace-out", filepath.Join(dir, "trace-"+w.Name+".json"),
					"-out", filepath.Join(dir, "runs.jsonl")}
				if code := realMain(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\n%s", code, errb.String())
				}
				lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
				last := lines[len(lines)-1]
				var top map[string]json.RawMessage
				if err := json.Unmarshal([]byte(last), &top); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, last)
				}
				if len(top) != 4 {
					t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(top))
				}
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, errb.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("%s = %v", d.Name, mv.Value)
					case mv.Unit != d.Unit:
						t.Errorf("%s unit %q, declared %q", d.Name, mv.Unit, d.Unit)
					}
					if n := strings.Count(last, `"`+d.Name+`":`); n != 1 {
						t.Errorf("%s appears %d times in the result line", d.Name, n)
					}
				}
				if trace == 1 {
					var doc struct {
						Spans []Span `json:"spans"`
					}
					raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
					if err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(raw, &doc); err != nil {
						t.Fatal(err)
					}
					if len(doc.Spans) == 0 {
						t.Error("traced run wrote no spans")
					}
				}
			})
		}
	}
	// What the runs appended must carry the demoted wall-clock metrics of
	// every end-to-end run, and be readable by -compare, against itself.
	runs := filepath.Join(dir, "runs.jsonl")
	recs, err := readRecords(runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		for _, d := range wallClockDefs {
			if mv, ok := rec.Info[d.Name]; rec.Trace == 0 && (!ok || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Unit != d.Unit) {
				t.Errorf("%s: recorded %s = %+v, want a finite value in %s", rec.Workload, d.Name, mv, d.Unit)
			}
		}
	}
	var out, errb bytes.Buffer
	if code := compareFiles(runs, runs, &out, &errb); code != 0 {
		t.Errorf("-compare of a file with itself: exit %d\n%s%s", code, out.String(), errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, {"-workload", "nope"}, {"-workload", "wire", "-trace", "2"}, {"-workload", "wire", "-seconds", "0"},
		{"-compare", "only-one.jsonl"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result on a usage error", args)
		}
	}
}
