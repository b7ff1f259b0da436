package obs

import (
	"fmt"
	"sort"
	"strings"
)

// BenchSchema is the current BENCH_*.json schema version. ReadBenchJSON
// rejects any other version so a diff never silently compares files with
// different field meanings.
const BenchSchema = 1

// BenchRecord is one machine-readable measurement for cross-PR performance
// trend tracking (the BENCH_*.json files at the repo root). All quantities
// are virtual-machine results, so they are bit-reproducible and any drift
// between PRs is a real behavior change, not measurement noise.
type BenchRecord struct {
	Suite    string  `json:"suite"`
	Name     string  `json:"name"`
	P        int     `json:"p,omitempty"`
	Eta      []int   `json:"eta,omitempty"`
	Steps    int     `json:"steps,omitempty"`
	Gamma    string  `json:"gamma,omitempty"`
	Makespan float64 `json:"makespan_sec,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
	Messages int     `json:"messages,omitempty"`
	Bytes    int     `json:"bytes,omitempty"`
	// Extra holds suite-specific scalar metrics (e.g. search node counts,
	// calibration errors), sorted by key on output.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchKey is the identity of a record: files are aligned and deduplicated
// by (suite, name, p).
type BenchKey struct {
	Suite string
	Name  string
	P     int
}

// Key returns the record's identity.
func (r BenchRecord) Key() BenchKey { return BenchKey{Suite: r.Suite, Name: r.Name, P: r.P} }

// String renders the key the way reports refer to a record.
func (k BenchKey) String() string {
	if k.P > 0 {
		return fmt.Sprintf("%s/%s (p=%d)", k.Suite, k.Name, k.P)
	}
	return fmt.Sprintf("%s/%s", k.Suite, k.Name)
}

// less orders keys by (suite, name, p).
func (k BenchKey) less(o BenchKey) bool {
	if k.Suite != o.Suite {
		return k.Suite < o.Suite
	}
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	return k.P < o.P
}

// BenchFile is the envelope of a BENCH_*.json file.
type BenchFile struct {
	Schema  int           `json:"schema"`
	Source  string        `json:"source"` // the command(s) that produced the file, e.g. "spbench -class B -steps 2 -json"
	Records []BenchRecord `json:"records"`
}

// WriteBenchJSON writes records to path as indented, deterministic JSON
// (records sorted by suite, then name, then p, so the same name measured
// at several processor counts orders reproducibly).
func WriteBenchJSON(path string, bf BenchFile) error {
	if bf.Schema == 0 {
		bf.Schema = BenchSchema
	}
	sort.SliceStable(bf.Records, func(a, b int) bool {
		return bf.Records[a].Key().less(bf.Records[b].Key())
	})
	return writeIndented(path, benchType, bf)
}

// ReadBenchJSON is the strict counterpart of WriteBenchJSON: it rejects
// unknown schema versions and duplicate (suite, name, p) keys, so every
// downstream consumer (regress, benchdiff, CI) can align records by key
// without ambiguity.
func ReadBenchJSON(path string) (BenchFile, error) { return readFile[BenchFile](path, benchType) }

// checkDuplicates folds records into seen, failing on the first repeated key.
func checkDuplicates(path string, records []BenchRecord, seen map[BenchKey]bool) error {
	for _, r := range records {
		k := r.Key()
		if seen[k] {
			return fmt.Errorf("obs: %s: duplicate record %s", path, k)
		}
		seen[k] = true
	}
	return nil
}

// MergeBenchFiles combines several bench files (e.g. spbench's Table 1 and
// sweepbench's strategy comparison) into one, joining their Source strings
// with " + " and failing on any (suite, name, p) collision across inputs.
func MergeBenchFiles(files ...BenchFile) (BenchFile, error) {
	out := BenchFile{Schema: BenchSchema}
	seen := map[BenchKey]bool{}
	var sources []string
	for i, bf := range files {
		if bf.Schema != 0 && bf.Schema != BenchSchema {
			return BenchFile{}, fmt.Errorf("obs: merge input %d has schema %d (want %d)", i, bf.Schema, BenchSchema)
		}
		if err := checkDuplicates(fmt.Sprintf("merge input %d", i), bf.Records, seen); err != nil {
			return BenchFile{}, err
		}
		out.Records = append(out.Records, bf.Records...)
		if bf.Source != "" {
			sources = append(sources, bf.Source)
		}
	}
	out.Source = strings.Join(sources, " + ")
	return out, nil
}
