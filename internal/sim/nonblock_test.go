package sim

import (
	"math"
	"strings"
	"testing"

	"genmp/internal/xport"
)

// Isend + Wait must be timing-identical to Send: injection is eager and
// completing a send request is free.
func TestIsendTimingMatchesSend(t *testing.T) {
	run := func(nonblocking bool) float64 {
		m := testMachine(2)
		res, err := m.Run(func(r *Rank) {
			if r.ID == 0 {
				if nonblocking {
					q := r.Isend(1, 3, xport.Msg{Bytes: 1000})
					r.Compute(5e-6)
					q.Wait()
				} else {
					r.Send(1, 3, xport.Msg{Bytes: 1000})
					r.Compute(5e-6)
				}
			} else {
				r.Recv(0, 3)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if off, on := run(false), run(true); off != on {
		t.Errorf("Isend makespan %g != Send makespan %g", on, off)
	}
}

// Preposting a receive is timing-neutral on its own: all receive cost
// accrues at Wait with the same arithmetic Recv uses.
func TestIrecvWaitTimingMatchesRecv(t *testing.T) {
	run := func(nonblocking bool) float64 {
		m := testMachine(2)
		res, err := m.Run(func(r *Rank) {
			if r.ID == 0 {
				r.Compute(30e-6)
				r.Send(1, 0, xport.Msg{Bytes: 1000})
			} else {
				var msg xport.Msg
				if nonblocking {
					q := r.Irecv(0, 0)
					msg = q.Wait()
				} else {
					msg = r.Recv(0, 0)
				}
				if msg.Bytes != 1000 {
					panic("wrong message")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if off, on := run(false), run(true); off != on {
		t.Errorf("Irecv+Wait makespan %g != Recv makespan %g", on, off)
	}
}

// Compute executed between the Irecv post and its Wait hides the wire
// one-for-one: the exposed wait shrinks by exactly the overlapped compute,
// down to zero.
func TestWaitShrinksWithOverlappedCompute(t *testing.T) {
	waitFor := func(overlap float64) float64 {
		m := testMachine(2)
		res, err := m.Run(func(r *Rank) {
			if r.ID == 0 {
				r.Send(1, 0, xport.Msg{Bytes: 1000})
			} else {
				q := r.Irecv(0, 0)
				if overlap > 0 {
					r.Compute(overlap)
				}
				q.Wait()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ranks[1].WaitTime
	}
	base := waitFor(0)
	if base <= 0 {
		t.Fatalf("baseline exposed wait = %g, want > 0", base)
	}
	const hide = 5e-6
	if got, want := waitFor(hide), base-hide; math.Abs(got-want) > 1e-15 {
		t.Errorf("wait with %gs overlapped compute = %g, want %g", hide, got, want)
	}
	// More compute than the message needs: the wait clamps at zero.
	if got := waitFor(10 * base); got != 0 {
		t.Errorf("wait with excess overlapped compute = %g, want 0", got)
	}
}

// The k-th Isend on a (src,dst,tag) channel pairs with the k-th Irecv, and
// payloads come back in FIFO order even though matching happens at Wait.
func TestNonblockingFIFOMatching(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		const n = 4
		if r.ID == 0 {
			var reqs []xport.Request
			for k := 0; k < n; k++ {
				reqs = append(reqs, r.Isend(1, 7, xport.Msg{Payload: []float64{float64(k)}}))
			}
			r.WaitAll(reqs...)
		} else {
			var reqs []xport.Request
			for k := 0; k < n; k++ {
				reqs = append(reqs, r.Irecv(0, 7))
			}
			for k, q := range reqs {
				if got := q.Wait().Payload[0]; got != float64(k) {
					panic("FIFO order violated")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Distinct tags are independent channels: preposted receives match by tag,
// not by arrival order.
func TestNonblockingTagsIndependent(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 2, xport.Msg{Payload: []float64{22}})
			r.Send(1, 1, xport.Msg{Payload: []float64{11}})
		} else {
			q1 := r.Irecv(0, 1)
			q2 := r.Irecv(0, 2)
			if q1.Wait().Payload[0] != 11 || q2.Wait().Payload[0] != 22 {
				panic("tag channels crossed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Waiting receive requests out of their Irecv post order on one channel
// would silently swap message contents relative to MPI semantics; the
// simulator panics instead.
func TestWaitOutOfPostOrderPanics(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 8})
			r.Send(1, 0, xport.Msg{Bytes: 8})
		} else {
			first := r.Irecv(0, 0)
			second := r.Irecv(0, 0)
			second.Wait() // out of post order: must panic
			first.Wait()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of Irecv post order") {
		t.Fatalf("expected post-order panic, got %v", err)
	}
}

// Waiting the same request twice panics.
func TestDoubleWaitPanics(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 8})
		} else {
			q := r.Irecv(0, 0)
			q.Wait()
			q.Wait()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "completed (or recycled) request") {
		t.Fatalf("expected double-Wait panic, got %v", err)
	}
}

// Deadlock post-mortem: a rank blocked in Wait shows as BLOCKED, and the
// flight report names the requests it posted but never Waited — the leak a
// mis-wired overlap schedule produces.
func TestFlightReportNamesUnwaitedRequests(t *testing.T) {
	m := testMachine(2)
	m.Flight = NewFlightRecorder(16)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.BeginPhase("solve0")
			r.Irecv(1, 5)                       // leaked: never Waited
			r.Isend(1, 6, xport.Msg{Bytes: 64}) // leaked: never Waited
			r.Irecv(1, 9).Wait()                // never satisfied: deadlock here
		}
		// Rank 1 exits immediately.
	})
	if err == nil {
		t.Fatal("deadlocked program returned nil error")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		"rank 0  BLOCKED in Recv(src=1, tag=9)",
		"un-Waited requests:",
		"irecv <- rank 1 tag 5",
		"isend -> rank 1 tag 6",
		"[phase solve0]",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("flight report missing %q:\n%s", want, msg)
		}
	}
}

// PendingRequests reflects completion discipline while the program runs:
// posts appear, Waits retire them.
func TestPendingRequestsTracksDiscipline(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 8})
			return
		}
		q1 := r.Irecv(0, 0)
		q2 := r.Isend(0, 1, xport.Msg{Bytes: 8})
		if n := len(r.PendingRequests()); n != 2 {
			panic("expected 2 pending requests")
		}
		q1.Wait()
		q2.Wait()
		if n := len(r.PendingRequests()); n != 0 {
			panic("requests not retired after Wait")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 never receives tag 1 — harmless here: the run ends when all
	// bodies return, and that send stays in the mailbox.
}

// Nonblocking events land in the trace with their distinct kinds, in
// timeline order: the Irecv marker at the post, the Wait carrying the full
// receive arithmetic.
func TestNonblockingTraceEvents(t *testing.T) {
	m := testMachine(2)
	m.Trace = &Trace{}
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			q := r.Isend(1, 0, xport.Msg{Bytes: 1000})
			q.Wait()
		} else {
			q := r.Irecv(0, 0)
			r.Compute(2e-6)
			q.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []EventKind
	for _, e := range m.Trace.Events() {
		if e.Rank == 1 {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []EventKind{EvIrecv, EvCompute, EvWait}
	if len(kinds) != len(want) {
		t.Fatalf("rank 1 trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("rank 1 trace kinds = %v, want %v", kinds, want)
		}
	}
	for _, e := range m.Trace.Events() {
		if e.Kind == EvIrecv && e.End != e.Start {
			t.Errorf("EvIrecv has nonzero duration: %+v", e)
		}
		if e.Kind == EvWait && e.Bytes != 1000 {
			t.Errorf("EvWait lost the matched size: %+v", e)
		}
	}
}
