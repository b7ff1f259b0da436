package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genmp/internal/sim"
	"genmp/internal/xport"
)

func traceForTest(t *testing.T) (*sim.Trace, sim.Result, int) {
	t.Helper()
	p := 3
	m := sim.NewMachine(p, sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6}, sim.CPU{FlopsPerSec: 1e9})
	m.Trace = &sim.Trace{}
	res, err := m.Run(func(r *sim.Rank) {
		r.BeginPhase("ring")
		r.Compute(float64(r.ID+1) * 1e-5)
		next := (r.ID + 1) % p
		prev := (r.ID + p - 1) % p
		r.SendRecv(next, 2, xport.Msg{Bytes: 640}, prev, 2)
		r.Mark("lap")
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Trace, res, p
}

// TestTraceJSONRoundTrip: a written trace artifact reconstitutes into an
// event list that is field-for-field (including bitwise float) identical,
// and rewriting it yields a byte-identical file.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr, res, p := traceForTest(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceJSON(path, "test -tracejson", tr, p, res.Makespan); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if tf.P != p || tf.Makespan != res.Makespan || tf.Source != "test -tracejson" {
		t.Errorf("envelope = p %d makespan %.17g source %q", tf.P, tf.Makespan, tf.Source)
	}
	back, err := tf.Trace()
	if err != nil {
		t.Fatal(err)
	}
	want, got := tr.Events(), back.Events()
	if len(want) != len(got) {
		t.Fatalf("round trip has %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Determinism: rewriting the reconstituted trace is byte-identical.
	path2 := filepath.Join(t.TempDir(), "trace2.json")
	if err := WriteTraceJSON(path2, "test -tracejson", back, p, res.Makespan); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Error("rewritten trace artifact is not byte-identical")
	}
}

func TestReadTraceJSONRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct{ path, wantSub string }{
		{filepath.Join(dir, "missing.json"), "read trace file"},
		{write("garbage.json", "{nope"), "parse"},
		{write("wrongkind.json", `{"schema":1,"kind":"plan","p":2,"makespan_sec":1,"events":[]}`), "not a trace file"},
		{write("badschema.json", `{"schema":99,"kind":"trace","p":2,"makespan_sec":1,"events":[]}`), "unsupported trace schema"},
		{write("badp.json", `{"schema":1,"kind":"trace","p":0,"makespan_sec":1,"events":[]}`), "invalid rank count"},
	}
	for _, c := range cases {
		_, err := ReadTraceJSON(c.path)
		if err == nil {
			t.Errorf("%s: accepted", filepath.Base(c.path))
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", filepath.Base(c.path), err, c.wantSub)
		}
	}
}

func TestTraceFileRejectsUnknownKind(t *testing.T) {
	tf := TraceFile{Schema: TraceSchema, Kind: TraceFileKind, P: 1,
		Events: []TraceEventJSON{{Rank: 0, Kind: "teleport", Start: 0, End: 1}}}
	if _, err := tf.Trace(); err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Errorf("unknown event kind produced %v", err)
	}
}
