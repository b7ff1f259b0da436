package xport_test

import (
	"strings"
	"testing"

	"genmp/internal/xport"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatalf("no panic (want %q)", want)
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not mention %q", rec, want)
		}
	}()
	f()
}

// Successful reservations live at package level: the registry is global
// and init-once, so re-running the tests (-count=2) must not re-reserve.
var (
	_ = xport.ReserveTags("test/a", 5000, 10)
	_ = xport.ReserveTags("test/e", 5010, 10) // adjacent to test/a: no overlap
)

func TestReserveTagsOverlapPanics(t *testing.T) {
	mustPanic(t, "overlaps", func() { xport.ReserveTags("test/b", 5009, 10) })
	mustPanic(t, "overlaps", func() { xport.ReserveTags("test/c", 4991, 10) })
	mustPanic(t, "overlaps", func() { xport.ReserveTags("test/d", 5003, 2) })
	mustPanic(t, "already reserved", func() { xport.ReserveTags("test/a", 6000, 1) })
}

func TestReserveTagsValidation(t *testing.T) {
	mustPanic(t, "owner name", func() { xport.ReserveTags("", 7000, 1) })
	mustPanic(t, "non-empty", func() { xport.ReserveTags("test/empty", 7000, 0) })
	mustPanic(t, "non-negative", func() { xport.ReserveTags("test/neg", -1, 5) })
}

var tagTestBounds = xport.ReserveTags("test/bounds", 8000, 4)

func TestTagSpaceTagBounds(t *testing.T) {
	ts := tagTestBounds
	if got := ts.Tag(3); got != 8003 {
		t.Errorf("Tag(3) = %d, want 8003", got)
	}
	if !ts.Contains(8000) || ts.Contains(8004) {
		t.Error("Contains boundaries wrong")
	}
	mustPanic(t, "outside space", func() { ts.Tag(4) })
	mustPanic(t, "outside space", func() { ts.Tag(-1) })
}
