package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// The artifact files — BENCH_*.json, profiles, trace, plan and redist dumps
// — share one envelope: a schema version and, for all but bench files, a
// kind. decode checks it for every file type, so each reader makes the same
// checks with the same error texts, and a []byte input needs no file.

// fileType names one artifact type for the envelope checks.
type fileType struct {
	what   string // how error texts name the type: "bench", "trace", …
	kind   string // the kind a file must declare; "" for bench files, which declare none
	schema int    // the schema version this build reads
}

var (
	benchType   = fileType{"bench", "", BenchSchema}
	traceType   = fileType{"trace", TraceFileKind, TraceSchema}
	profileType = fileType{"profile", ProfileKind, ProfileSchema}
	redistType  = fileType{"redist", RedistFileKind, RedistSchema}
	planType    = fileType{"plan", PlanFileKind, PlanSchema}
)

// envelope is implemented by every artifact file type.
type envelope interface {
	// header returns the kind and schema the file declares.
	header() (kind string, schema int)
	// check runs the type's own checks once the envelope passed; name
	// labels the errors.
	check(name string) error
}

func (bf BenchFile) header() (string, int)   { return "", bf.Schema }
func (tf TraceFile) header() (string, int)   { return tf.Kind, tf.Schema }
func (pf ProfileFile) header() (string, int) { return pf.Kind, pf.Schema }
func (rf RedistFile) header() (string, int)  { return rf.Kind, rf.Schema }
func (pf PlanFile) header() (string, int)    { return pf.Kind, pf.Schema }

func (bf BenchFile) check(name string) error {
	return checkDuplicates(name, bf.Records, map[BenchKey]bool{})
}

func (tf TraceFile) check(name string) error {
	if tf.P < 1 {
		return fmt.Errorf("obs: %s: invalid rank count %d", name, tf.P)
	}
	return nil
}

func (pf ProfileFile) check(name string) error {
	if pf.Profile == nil {
		return fmt.Errorf("obs: %s: missing profile body", name)
	}
	return nil
}

func (RedistFile) check(string) error { return nil }
func (PlanFile) check(string) error   { return nil }

// decode parses data as a file of type ft and checks its envelope, then
// the type's own invariants. name labels the errors (the path, for the
// file readers).
func decode[T envelope](data []byte, name string, ft fileType) (T, error) {
	var v, zero T
	if err := json.Unmarshal(data, &v); err != nil {
		return zero, fmt.Errorf("obs: parse %s: %w", name, err)
	}
	kind, schema := v.header()
	if ft.kind != "" && kind != ft.kind {
		return zero, fmt.Errorf("obs: %s: kind %q is not a %s file", name, kind, ft.what)
	}
	if schema != ft.schema {
		return zero, fmt.Errorf("obs: %s: unsupported %s schema %d (this build reads schema %d)", name, ft.what, schema, ft.schema)
	}
	if err := v.check(name); err != nil {
		return zero, err
	}
	return v, nil
}

// readFile reads path and decodes it as a file of type ft.
func readFile[T envelope](path string, ft fileType) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("obs: read %s file: %w", ft.what, err)
	}
	return decode[T](data, path, ft)
}

// writeIndented writes v to path as indented JSON with a trailing newline.
func writeIndented(path string, ft fileType, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s file: %w", ft.what, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
