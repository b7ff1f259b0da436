package mbox

import (
	"sync"
	"sync/atomic"
)

// pool recycles message payload buffers machine-wide. Ranks hand buffers to
// each other through messages (a send transfers ownership to the
// receiver), so a per-rank free list would drain at the upstream end of
// every pipeline while piling up downstream; one shared LIFO keeps the
// population balanced no matter which direction traffic flows.
type pool struct {
	mu   sync.Mutex
	bufs [][]float64
	// Traffic counters are atomics so PoolStats can be read while a run is
	// in flight.
	gets, hits, puts, drops atomic.Int64
}

// maxBufs bounds the free list; beyond it buffers are dropped to the
// garbage collector (a machine at steady state holds far fewer).
const maxBufs = 256

// GetPayload returns a length-n buffer (contents unspecified), recycled
// when a pooled one is large enough.
func (s *Store) GetPayload(n int) []float64 {
	p := &s.pool
	p.gets.Add(1)
	if s.meters != nil {
		s.meters.PoolGets.Inc()
	}
	p.mu.Lock()
	for i := len(p.bufs) - 1; i >= 0; i-- {
		if cap(p.bufs[i]) >= n {
			buf := p.bufs[i]
			last := len(p.bufs) - 1
			p.bufs[i] = p.bufs[last]
			p.bufs[last] = nil
			p.bufs = p.bufs[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			if s.meters != nil {
				s.meters.PoolHits.Inc()
			}
			return buf[:n]
		}
	}
	p.mu.Unlock()
	return make([]float64, n)
}

// PutPayload returns buf to the pool, or drops it when the pool is full.
func (s *Store) PutPayload(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	p := &s.pool
	p.puts.Add(1)
	if s.meters != nil {
		s.meters.PoolPuts.Inc()
	}
	p.mu.Lock()
	if len(p.bufs) < maxBufs {
		p.bufs = append(p.bufs, buf)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.drops.Add(1)
	if s.meters != nil {
		s.meters.PoolDrops.Inc()
	}
}

// PoolStats is the cumulative traffic of a recycling pool. A healthy
// steady state allocates during warm-up only, after which HitRate
// approaches 1.
type PoolStats struct {
	Gets  int64 // buffers requested
	Hits  int64 // requests served by recycling
	Puts  int64 // buffers returned
	Drops int64 // returns discarded because the pool was full
}

// HitRate returns Hits/Gets, or 0 when nothing was requested.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// PoolStats returns the payload pool's traffic, cumulative across runs.
// Safe to call concurrently with a run.
func (s *Store) PoolStats() PoolStats {
	p := &s.pool
	return PoolStats{Gets: p.gets.Load(), Hits: p.hits.Load(), Puts: p.puts.Load(), Drops: p.drops.Load()}
}
