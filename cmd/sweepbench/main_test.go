package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// committedSource returns the source field of a committed artifact at the
// repository root.
func committedSource(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Source string }
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f.Source
}

// TestSources: each perf-gate command line records exactly the source its
// committed artifact holds, so the artifacts regenerate byte for byte.
func TestSources(t *testing.T) {
	for _, tc := range []struct{ args, artifact string }{
		{"-p 16 -eta 64,64,64 -steps 2 -topology bus,hypercube,hypercube+contention -json x", "BENCH_topologies.json"},
		{"-redist -p 4 -eta 32,32,32 -steps 2 -redistbudget 4096 -json x", "BENCH_redist.json"},
	} {
		b, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got, want := b.src.For("-json"), committedSource(t, tc.artifact); got != want {
			t.Errorf("%s: source %q, want %q", tc.args, got, want)
		}
	}
	// BENCH_results.json merges spbench's Table 1 with sweepbench's
	// strategy comparison; the second half is sweepbench's.
	b, err := parse(strings.Fields("-p 16 -eta 64,64,64 -steps 2 -json x"))
	if err != nil {
		t.Fatal(err)
	}
	merged := committedSource(t, "BENCH_results.json")
	if got := b.src.For("-json"); !strings.HasSuffix(merged, " + "+got) {
		t.Errorf("strategy source %q is not the second half of %q", got, merged)
	}
}

// TestModes: every command line of the perf gate and of the documented
// examples selects its mode; a flag the selected mode does not read fails
// the command line with an error naming the flag and the mode.
func TestModes(t *testing.T) {
	for _, tc := range []struct{ args, mode string }{
		{"-p 16 -eta 64,64,64 -steps 2 -json x", modeStrategy.Name},
		{"-p 16 -eta 64,64,64 -steps 2 -topology bus,hypercube,hypercube+contention -json x", modeStrategy.Name},
		{"-redist -p 4 -eta 32,32,32 -steps 2 -redistbudget 4096 -json x", modeRedist.Name},
		{"-p 9 -timeline -metrics", modeTraced.Name},
		{"-p 16 -profile x", modeTraced.Name},
		{"-p 16 -eta 64,64,64 -grainsweep", modeGrain.Name},
		{"-backend rt -p 2 -eta 12,12,12 -json x", modeReal.Name},
		{"-p 16 -eta 32,32,32 -steps 1 -grain 32 -topology bus -coll ring -overlap", modeStrategy.Name},
	} {
		b, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%s: %v", tc.args, err)
		} else if b.mode.Name != tc.mode {
			t.Errorf("%s: mode %q, want %q", tc.args, b.mode.Name, tc.mode)
		}
	}
	for _, tc := range []struct{ args, flag, mode string }{
		{"-backend rt -p 2 -topology bus -trace t.json", "-topology", modeReal.Name},
		{"-grainsweep -metrics", "-grainsweep", modeTraced.Name},
		{"-redist -overlap -grain 3 -metrics", "-overlap", modeRedist.Name},
		{"-p 16 -json x -metrics", "-json", modeTraced.Name},
		{"-topology bus,hypercube -timeline", "-timeline", modeStrategy.Name},
	} {
		_, err := parse(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), tc.mode) {
			t.Errorf("%s: got %v, want an error naming %s and the %s mode", tc.args, err, tc.flag, tc.mode)
		}
	}
}
