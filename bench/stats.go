package main

import (
	"math/rand/v2"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the order statistics at position q·(n−1) (R's type 7). xs must be
// non-empty; it is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// iqr returns the distance between the first and third quartiles of xs.
func iqr(xs []float64) float64 {
	return quantile(xs, 0.75) - quantile(xs, 0.25)
}

// Set-up repetitions: at least setupReps runs and at least setupTime of
// them, so the median of a chain of a few microseconds rests on thousands
// of runs and that of a 170 ms chain on twenty.
const (
	setupReps = 20
	setupTime = 500 * time.Millisecond
)

// repeat runs f at least setupReps times and for at least setupTime, and
// returns each run's seconds.
func repeat(f func() error) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for len(secs) < setupReps || time.Since(start) < setupTime {
		t := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return secs, nil
}

// slice is one entry of a pass's schedule: a run of consecutive ops of one
// workload.
type slice struct {
	Workload string  `json:"workload"`
	Ops      int     `json:"ops"`
	Seconds  float64 `json:"seconds"`
}

// interleave gives each named workload budget of wall time in slices of
// about sliceLen. Each round visits the workloads with budget left in an
// order rng shuffles, so every workload's samples span the whole pass and
// host noise spreads over all of them. step runs one op of workload i.
func interleave(rng *rand.Rand, names []string, budget, sliceLen time.Duration, step func(i int)) []slice {
	spent := make([]time.Duration, len(names))
	var sched []slice
	for {
		var live []int
		for i, s := range spent {
			if s < budget {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return sched
		}
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		for _, i := range live {
			start := time.Now()
			ops := 0
			for {
				step(i)
				ops++
				if el := time.Since(start); el >= sliceLen || spent[i]+el >= budget {
					break
				}
			}
			el := time.Since(start)
			spent[i] += el
			sched = append(sched, slice{Workload: names[i], Ops: ops, Seconds: el.Seconds()})
		}
	}
}
