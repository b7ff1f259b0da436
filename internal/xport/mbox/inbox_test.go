package mbox

import (
	"math/rand"
	"testing"

	"genmp/internal/xport"
)

// However many messages pass through an inbox, its backing array stays
// within a small multiple of the peak number of pending messages, whether a
// receive takes the oldest message or one from behind older messages of
// other channels: the consumed prefix is compacted away. One rank sends to
// itself, so a lost message fails the Get as a deadlock instead of hanging.
// Each of the peak channels holds one message at a time, and a seeded
// random channel is drained and refilled at every step.
func TestInboxStaysBounded(t *testing.T) {
	for _, peak := range []int{1, 3, 17} {
		var s Store
		s.Reset(1, nil)
		b := &s.boxes[0]
		last := make([]int, peak) // the sequence number queued on each tag
		for tag := range last {
			last[tag] = tag
			s.Put(0, 0, tag, xport.Msg{}, float64(tag))
		}
		rng := rand.New(rand.NewSource(1))
		for i := peak; i < 20000; i++ {
			tag := rng.Intn(peak)
			m, stamp, err := s.Get(0, 0, tag)
			if err != nil || m.Src != 0 || m.Tag != tag || stamp != float64(last[tag]) {
				t.Fatalf("peak %d, step %d: Get(tag %d) = src %d tag %d stamp %g, %v; want stamp %d",
					peak, i, tag, m.Src, m.Tag, stamp, err, last[tag])
			}
			last[tag] = i
			s.Put(0, 0, tag, xport.Msg{}, float64(i))
			if n := len(b.pending) - b.head; n != peak {
				t.Fatalf("peak %d, step %d: %d messages pending, want %d", peak, i, n, peak)
			}
			if c := cap(b.pending); c > 4*peak {
				t.Fatalf("peak %d, step %d: backing array holds %d envelopes, want ≤ %d", peak, i, c, 4*peak)
			}
		}
	}
}
