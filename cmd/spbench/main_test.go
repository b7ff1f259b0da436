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
	for _, tc := range []struct{ args, flag, artifact string }{
		{"-class S -steps 2 -p 4 -plan x", "-plan", "PLAN_sp4.json"},
		{"-class S -steps 2 -p 4 -tracejson x", "-tracejson", "TRACE_sp4.json"},
		{"-class S -steps 2 -p 4 -redistplan x", "-redistplan", "REDIST_sp4.json"},
		{"-class B -steps 2 -p 16 -profile x", "-profile", "BENCH_profile_sp16.json"},
		{"-overlapcmp -steps 2 -json x", "-json", "BENCH_overlap.json"},
		{"-backend rt -p 4 -class S -steps 2 -json x", "-json", "BENCH_real.json"},
	} {
		b, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got, want := b.src.For(tc.flag), committedSource(t, tc.artifact); got != want {
			t.Errorf("%s: source %q, want %q", tc.args, got, want)
		}
	}
	// BENCH_results.json merges spbench's Table 1 with sweepbench's
	// strategy comparison; the first half is spbench's.
	b, err := parse(strings.Fields("-class B -steps 2 -json x"))
	if err != nil {
		t.Fatal(err)
	}
	merged := committedSource(t, "BENCH_results.json")
	if got := b.src.For("-json"); !strings.HasPrefix(merged, got+" + ") {
		t.Errorf("Table 1 source %q is not the first half of %q", got, merged)
	}
}

// TestModes: every command line of the perf gate and of the documented
// examples selects its mode; a flag the selected mode does not read fails
// the command line with an error naming the flag and the mode.
func TestModes(t *testing.T) {
	for _, tc := range []struct{ args, mode string }{
		{"-class B -steps 2 -json x", modeTable.Name},
		{"-class B -steps 2 -p 16 -profile x", modeRun.Name},
		{"-class S -steps 2 -p 4 -plan x", modeRun.Name},
		{"-class S -steps 2 -p 4 -tracejson x", modeRun.Name},
		{"-class S -steps 2 -p 4 -redistplan x", modeRun.Name},
		{"-overlapcmp -steps 2 -json x", modeOverlapCmp.Name},
		{"-backend rt -p 4 -class S -steps 2 -json x", modeReal.Name},
		{"-class W -steps 1 -procs 1,4,9", modeTable.Name},
		{"-class A -steps 1 -p 16 -metrics -trace x", modeRun.Name},
		{"-calibrate -class W -steps 2", modeCalibrate.Name},
		{"-class W -steps 1 -json x", modeTable.Name},
		{"-class S -steps 2 -p 4 -blame -tracejson x", modeRun.Name},
		{"-class S -steps 1 -p 4 -topology bus -coll ring -overlap -data", modeRun.Name},
		{"-calibrate -procs 4,9 -topology hypercube -json x -metrics-addr localhost:0", modeCalibrate.Name},
	} {
		b, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%s: %v", tc.args, err)
		} else if b.mode.Name != tc.mode {
			t.Errorf("%s: mode %q, want %q", tc.args, b.mode.Name, tc.mode)
		}
	}
	for _, tc := range []struct{ args, flag, mode string }{
		{"-class S -procs 1,4 -trace t.json -metrics -blame", "-trace", modeTable.Name},
		{"-calibrate -p 4", "-calibrate", modeRun.Name},
		{"-backend rt -p 2 -trace t.json -topology bus", "-topology", modeReal.Name},
		{"-overlapcmp -class S", "-class", modeOverlapCmp.Name},
		{"-backend rt", "-backend", modeTable.Name},
	} {
		_, err := parse(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), tc.mode) {
			t.Errorf("%s: got %v, want an error naming %s and the %s mode", tc.args, err, tc.flag, tc.mode)
		}
	}
}
