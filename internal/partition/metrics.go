// Live metrics bridge for the partitioning searches. SearchStats remains
// the per-call accounting callers consume programmatically; EnableMetrics
// additionally mirrors the counters into an obs/metrics.Registry as
// process-wide cumulative series, one entry→exit delta per search.
package partition

import (
	"sync/atomic"

	"genmp/internal/obs/metrics"
)

// partMetrics holds the resolved instrument handles of the enabled
// registry.
type partMetrics struct {
	reg             *metrics.Registry
	searchesOptimal *metrics.Counter
	searchesCapped  *metrics.Counter
	inflight        *metrics.Gauge
	nodes           *metrics.Counter
	leaves          *metrics.Counter
	prunedBound     *metrics.Counter
	prunedCap       *metrics.Counter
	distributions   *metrics.Counter
}

var partMetricsPtr atomic.Pointer[partMetrics]

// EnableMetrics mirrors search accounting into reg (pass nil to disable).
// Counting is purely additive observability: search results, pruning and
// SearchStats are identical either way.
func EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		partMetricsPtr.Store(nil)
		return
	}
	pm := &partMetrics{
		reg:             reg,
		searchesOptimal: reg.Counter("partition_searches_total", "partitioning searches started, by entry point", metrics.L("kind", "optimal")),
		searchesCapped:  reg.Counter("partition_searches_total", "partitioning searches started, by entry point", metrics.L("kind", "capped")),
		inflight:        reg.Gauge("partition_searches_inflight", "partitioning searches currently running"),
		nodes:           reg.Counter("partition_search_nodes_total", "search-tree nodes expanded"),
		leaves:          reg.Counter("partition_search_leaves_total", "complete partitionings whose cost was evaluated"),
		prunedBound:     reg.Counter("partition_search_pruned_total", "candidates discarded before evaluation, by reason", metrics.L("reason", "bound")),
		prunedCap:       reg.Counter("partition_search_pruned_total", "candidates discarded before evaluation, by reason", metrics.L("reason", "cap")),
		distributions:   reg.Counter("partition_search_distributions_total", "per-factor exponent distributions generated (Figure 2)"),
	}
	partMetricsPtr.Store(pm)
}

// add publishes one search's entry→exit SearchStats delta.
func (pm *partMetrics) add(d SearchStats) {
	pm.nodes.Add(int64(d.NodesVisited))
	pm.leaves.Add(int64(d.LeavesEvaluated))
	pm.prunedBound.Add(int64(d.PrunedBound))
	pm.prunedCap.Add(int64(d.PrunedCap))
	pm.distributions.Add(int64(d.Distributions))
}

// minus returns the per-field difference s − pre; used to publish exactly
// the work one call performed even when the caller reuses a SearchStats
// across calls.
func (s SearchStats) minus(pre SearchStats) SearchStats {
	return SearchStats{
		Factors:         s.Factors - pre.Factors,
		Distributions:   s.Distributions - pre.Distributions,
		NodesVisited:    s.NodesVisited - pre.NodesVisited,
		LeavesEvaluated: s.LeavesEvaluated - pre.LeavesEvaluated,
		PrunedBound:     s.PrunedBound - pre.PrunedBound,
		PrunedCap:       s.PrunedCap - pre.PrunedCap,
	}
}
