package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"genmp/internal/sim"
)

// TraceSchema is the current trace_*.json schema version.
const TraceSchema = 1

// TraceFileKind is the envelope discriminator of a serialized trace.
const TraceFileKind = "trace"

// TraceEventJSON is one sim.Event in a stable wire shape. Kind travels as
// its String name so files stay readable and robust against enum renumber.
// Times are Go's shortest-round-trip float encoding, so a decoded event is
// bitwise equal to the recorded one.
type TraceEventJSON struct {
	Rank  int     `json:"rank"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start_sec"`
	End   float64 `json:"end_sec"`
	Peer  int     `json:"peer"`
	Bytes int     `json:"bytes,omitempty"`
	Label string  `json:"label,omitempty"`
	Tag   int     `json:"tag,omitempty"`
	Wait  float64 `json:"wait_sec,omitempty"`
	Phase string  `json:"phase,omitempty"`
}

// TraceFile is the on-disk envelope of a recorded trace: the full event
// timeline of one run plus the rank count and the makespan the simulator
// reported, making traces shippable artifacts like BENCH/profile/plan
// files. Events are written one per line in (start, rank) order, so the
// file is diffable and a regenerated identical run produces a
// byte-identical file.
type TraceFile struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Source records the command line that produced the dump.
	Source   string           `json:"source,omitempty"`
	P        int              `json:"p"`
	Makespan float64          `json:"makespan_sec"`
	Events   []TraceEventJSON `json:"events"`
}

// NewTraceFile captures a trace into its wire shape.
func NewTraceFile(source string, tr *sim.Trace, p int, makespan float64) (TraceFile, error) {
	if tr == nil {
		return TraceFile{}, fmt.Errorf("obs: trace file: nil trace")
	}
	tf := TraceFile{Schema: TraceSchema, Kind: TraceFileKind, Source: source, P: p, Makespan: makespan}
	for _, e := range tr.Events() {
		tf.Events = append(tf.Events, TraceEventJSON{
			Rank: e.Rank, Kind: e.Kind.String(), Start: e.Start, End: e.End,
			Peer: e.Peer, Bytes: e.Bytes, Label: e.Label, Tag: e.Tag,
			Wait: e.Wait, Phase: e.Phase,
		})
	}
	return tf, nil
}

// Trace reconstitutes the recorded sim.Trace.
func (tf TraceFile) Trace() (*sim.Trace, error) {
	tr := &sim.Trace{}
	for i, ej := range tf.Events {
		kind, err := sim.ParseEventKind(ej.Kind)
		if err != nil {
			return nil, fmt.Errorf("obs: trace event %d: %w", i, err)
		}
		tr.Append(sim.Event{
			Rank: ej.Rank, Kind: kind, Start: ej.Start, End: ej.End,
			Peer: ej.Peer, Bytes: ej.Bytes, Label: ej.Label, Tag: ej.Tag,
			Wait: ej.Wait, Phase: ej.Phase,
		})
	}
	return tr, nil
}

// WriteTraceJSON serializes a recorded trace to path, one event per line.
func WriteTraceJSON(path, source string, tr *sim.Trace, p int, makespan float64) error {
	tf, err := NewTraceFile(source, tr, p, makespan)
	if err != nil {
		return err
	}
	data, err := marshalTraceFile(tf)
	if err != nil {
		return fmt.Errorf("obs: marshal trace file: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// marshalTraceFile lays the envelope out with one event per line: compact
// enough for tens of thousands of events, line-diffable for CI gates.
func marshalTraceFile(tf TraceFile) ([]byte, error) {
	var buf bytes.Buffer
	src, err := json.Marshal(tf.Source)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "{\n  \"schema\": %d,\n  \"kind\": %q,\n", tf.Schema, tf.Kind)
	if tf.Source != "" {
		fmt.Fprintf(&buf, "  \"source\": %s,\n", src)
	}
	mk, err := json.Marshal(tf.Makespan)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "  \"p\": %d,\n  \"makespan_sec\": %s,\n  \"events\": [\n", tf.P, mk)
	for i, ej := range tf.Events {
		line, err := json.Marshal(ej)
		if err != nil {
			return nil, err
		}
		buf.WriteString("    ")
		buf.Write(line)
		if i < len(tf.Events)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("  ]\n}\n")
	return buf.Bytes(), nil
}

// ReadTraceJSON validates the envelope of a trace dump on the way back in.
func ReadTraceJSON(path string) (TraceFile, error) { return readFile[TraceFile](path, traceType) }
