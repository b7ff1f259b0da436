package sim

import (
	"testing"

	"genmp/internal/xport"
)

func TestTagSpacesRegistryListsCollectives(t *testing.T) {
	var found bool
	prev := -1
	for _, ts := range xport.TagSpaces() {
		if ts.Base() < prev {
			t.Error("xport.TagSpaces not sorted by base")
		}
		prev = ts.Base()
		if ts.Name() == "sim/collective" {
			found = true
			if ts.Base() != 1<<30 {
				t.Errorf("sim/collective base = %d, want 1<<30", ts.Base())
			}
		}
	}
	if !found {
		t.Error("sim/collective reservation missing from registry")
	}
}
