package xport

import (
	"fmt"
	"sort"
	"sync"
)

// TagSpace is a reserved, half-open range [Base, Base+Size) of message
// tags. Subsystems obtain one from ReserveTags at package init and mint
// tags through Tag, replacing the historical scattered `1<<27 | ...`
// literals whose disjointness nothing checked. The registry is transport-
// neutral: every backend matches messages by the same tag values, so a
// schedule compiled against one reservation runs anywhere.
type TagSpace struct {
	name string
	base int
	size int
}

// Name returns the owner name given at reservation.
func (t TagSpace) Name() string { return t.name }

// Base returns the first tag of the space.
func (t TagSpace) Base() int { return t.base }

// Size returns the number of tags in the space.
func (t TagSpace) Size() int { return t.size }

// Tag returns Base+off, panicking if off falls outside the reservation —
// an out-of-range offset would silently collide with a neighboring space.
func (t TagSpace) Tag(off int) int {
	if off < 0 || off >= t.size {
		panic(fmt.Sprintf("xport: tag offset %d outside space %q [%d,+%d)", off, t.name, t.base, t.size))
	}
	return t.base + off
}

// Contains reports whether tag falls inside the space.
func (t TagSpace) Contains(tag int) bool { return tag >= t.base && tag < t.base+t.size }

var (
	tagMu     sync.Mutex
	tagSpaces []TagSpace
)

// ReserveTags registers the half-open tag range [base, base+size) under the
// given owner name. It panics if the range is empty, negative, or overlaps
// any existing reservation: a collision would let two subsystems' messages
// match each other's receives, which no backend can detect at runtime.
func ReserveTags(name string, base, size int) TagSpace {
	if name == "" {
		panic("xport: ReserveTags needs a non-empty owner name")
	}
	if base < 0 || size < 1 {
		panic(fmt.Sprintf("xport: ReserveTags(%q, %d, %d): range must be non-negative and non-empty", name, base, size))
	}
	t := TagSpace{name: name, base: base, size: size}
	tagMu.Lock()
	defer tagMu.Unlock()
	for _, ex := range tagSpaces {
		if t.base < ex.base+ex.size && ex.base < t.base+t.size {
			panic(fmt.Sprintf("xport: tag space %q [%d,+%d) overlaps %q [%d,+%d)",
				name, base, size, ex.name, ex.base, ex.size))
		}
		if ex.name == name {
			panic(fmt.Sprintf("xport: tag space name %q already reserved", name))
		}
	}
	tagSpaces = append(tagSpaces, t)
	return t
}

// TagSpaces returns a snapshot of all reservations sorted by base — the
// registry's table of record for docs and tests.
func TagSpaces() []TagSpace {
	tagMu.Lock()
	defer tagMu.Unlock()
	out := make([]TagSpace, len(tagSpaces))
	copy(out, tagSpaces)
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// LookupTags returns the reservation registered under name, if any — the
// way a deserialized schedule (obs plan JSON) resolves its tag space back
// to the live registry.
func LookupTags(name string) (TagSpace, bool) {
	tagMu.Lock()
	defer tagMu.Unlock()
	for _, t := range tagSpaces {
		if t.name == name {
			return t, true
		}
	}
	return TagSpace{}, false
}
