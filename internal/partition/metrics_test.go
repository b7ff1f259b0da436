package partition

import (
	"testing"

	"genmp/internal/obs/metrics"
)

func value(t *testing.T, reg *metrics.Registry, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := reg.Snapshot().Value(name, labels...)
	return v
}

func TestSearchMetricsSerial(t *testing.T) {
	reg := metrics.New()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	var stats SearchStats
	if _, err := OptimalStats(64, 3, UniformObjective(3), &stats); err != nil {
		t.Fatal(err)
	}
	if got := value(t, reg, "partition_searches_total", metrics.L("kind", "optimal")); got != 1 {
		t.Errorf("searches{optimal} = %g, want 1", got)
	}
	if got := value(t, reg, "partition_search_nodes_total"); got != float64(stats.NodesVisited) {
		t.Errorf("nodes = %g, want SearchStats' %d", got, stats.NodesVisited)
	}
	if got := value(t, reg, "partition_search_leaves_total"); got != float64(stats.LeavesEvaluated) {
		t.Errorf("leaves = %g, want %d", got, stats.LeavesEvaluated)
	}
	if got := value(t, reg, "partition_search_pruned_total", metrics.L("reason", "bound")); got != float64(stats.PrunedBound) {
		t.Errorf("pruned{bound} = %g, want %d", got, stats.PrunedBound)
	}
	if got := value(t, reg, "partition_searches_inflight"); got != 0 {
		t.Errorf("inflight after return = %g, want 0", got)
	}

	// Reusing the same SearchStats across calls must publish per-call
	// deltas: the registry total stays equal to the accumulated stats.
	if _, err := OptimalStats(64, 3, UniformObjective(3), &stats); err != nil {
		t.Fatal(err)
	}
	if got := value(t, reg, "partition_search_nodes_total"); got != float64(stats.NodesVisited) {
		t.Errorf("nodes after reuse = %g, want accumulated %d", got, stats.NodesVisited)
	}

	// A capped search counts under its own kind and records cap prunes.
	var capped SearchStats
	if _, err := OptimalCappedStats(16, 3, UniformObjective(3), []int{4, 4, 4}, &capped); err != nil {
		t.Fatal(err)
	}
	if got := value(t, reg, "partition_searches_total", metrics.L("kind", "capped")); got != 1 {
		t.Errorf("searches{capped} = %g, want 1", got)
	}
	// 16 = 2⁴ has 7 distributions over 3 dimensions; caps of 4 cut the 6
	// subtrees other than 4×4×4.
	if got := value(t, reg, "partition_search_pruned_total", metrics.L("reason", "cap")); got != 6 || capped.PrunedCap != 6 {
		t.Errorf("pruned{cap} = %g, SearchStats %d, want 6", got, capped.PrunedCap)
	}
	if got := value(t, reg, "partition_search_nodes_total"); got != float64(stats.NodesVisited+capped.NodesVisited) {
		t.Errorf("nodes after capped = %g, want %d", got, stats.NodesVisited+capped.NodesVisited)
	}
	if got := value(t, reg, "partition_search_distributions_total"); got != float64(stats.Distributions+capped.Distributions) {
		t.Errorf("distributions = %g, want %d", got, stats.Distributions+capped.Distributions)
	}
}

// Searches that do no work must report a 0 prune ratio, never NaN: the
// d = 1 error path and a fresh SearchStats both have BruteForceLeaves = 0.
func TestPruneRatioZeroWork(t *testing.T) {
	if got := (&SearchStats{}).PruneRatio(); got != 0 {
		t.Errorf("fresh stats PruneRatio = %g, want 0", got)
	}
	var nilStats *SearchStats
	if got := nilStats.PruneRatio(); got != 0 {
		t.Errorf("nil stats PruneRatio = %g, want 0", got)
	}
	var stats SearchStats
	if _, err := OptimalStats(6, 1, UniformObjective(1), &stats); err == nil {
		t.Fatal("1-D search on p > 1 should fail")
	}
	if got := stats.PruneRatio(); got != got || got != 0 { // got != got catches NaN
		t.Errorf("zero-work PruneRatio = %g, want 0", got)
	}
	// String() renders through PruneRatio and must not print NaN.
	if s := stats.String(); s == "" {
		t.Error("empty stats String()")
	}
}
