package obs

import "fmt"

// ProfileSchema is the current profile_*.json schema version.
const ProfileSchema = 1

// ProfileKind is the envelope discriminator that lets tools (cmd/benchdiff)
// tell a serialized Profile from a BenchFile without out-of-band hints.
const ProfileKind = "profile"

// ProfileFile is the on-disk envelope of a serialized Profile, the unit
// obs/profdiff compares. Like BenchFile it is deterministic JSON: the
// virtual machine is bit-reproducible and Profile holds only aggregates
// computed in a fixed order, so regenerating the same configuration yields
// a byte-identical file.
type ProfileFile struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Source records the command line and grid parameters that produced
	// the profile, so a diff report can say how to reproduce either side.
	Source  string   `json:"source,omitempty"`
	Profile *Profile `json:"profile"`
}

// WriteProfileJSON serializes p to path as indented JSON.
func WriteProfileJSON(path, source string, p *Profile) error {
	if p == nil {
		return fmt.Errorf("obs: write profile: nil profile")
	}
	pf := ProfileFile{Schema: ProfileSchema, Kind: ProfileKind, Source: source, Profile: p}
	return writeIndented(path, profileType, pf)
}

// ReadProfileJSON is the strict counterpart of WriteProfileJSON: it
// validates the envelope (schema version, kind, non-nil profile) so the
// round trip Profile → disk → Profile is lossless or loudly fails.
func ReadProfileJSON(path string) (ProfileFile, error) {
	return readFile[ProfileFile](path, profileType)
}
