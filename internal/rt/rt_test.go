package rt

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"genmp/internal/xport"
)

// Messages on one (src, dst, tag) channel arrive in send order, and
// distinct tags are independent channels.
func TestFIFOAndTagIsolation(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		const n = 8
		if r.ID == 0 {
			for k := 0; k < n; k++ {
				r.Send(1, 7, xport.Msg{Payload: []float64{float64(k)}})
			}
			r.Send(1, 9, xport.Msg{Payload: []float64{100}})
		} else {
			q9 := r.Irecv(0, 9)
			for k := 0; k < n; k++ {
				if got := r.Recv(0, 7).Payload[0]; got != float64(k) {
					panic("FIFO order violated")
				}
			}
			if q9.Wait().Payload[0] != 100 {
				panic("tag channels crossed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Payloads hand off zero-copy: the receiver observes the very slice the
// sender built (same backing array).
func TestZeroCopyHandoff(t *testing.T) {
	m := NewMachine(2)
	buf := make([]float64, 4)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			buf[0] = 42
			r.Send(1, 0, xport.Msg{Payload: buf})
		} else {
			got := r.Recv(0, 0).Payload
			if &got[0] != &buf[0] {
				panic("payload was copied")
			}
			if got[0] != 42 {
				panic("payload content lost")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Isend is eager and WaitAll retires mixed requests; Irecv preposts match
// in Wait order.
func TestNonblockingDiscipline(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			var reqs []xport.Request
			for k := 0; k < 4; k++ {
				reqs = append(reqs, r.Isend(1, 3, xport.Msg{Payload: []float64{float64(k)}}))
			}
			r.WaitAll(reqs...)
		} else {
			var reqs []xport.Request
			for k := 0; k < 4; k++ {
				reqs = append(reqs, r.Irecv(0, 3))
			}
			for k, q := range reqs {
				if got := q.Wait().Payload[0]; got != float64(k) {
					panic("prepost order violated")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// AllReduce combines in rank order deterministically and returns the same
// vector to all ranks; Barrier synchronizes repeatedly (generation reuse).
func TestBarrierAndAllReduce(t *testing.T) {
	const p = 5
	m := NewMachine(p)
	_, err := m.Run(func(r *Rank) {
		for round := 0; round < 10; round++ {
			out := r.AllReduce([]float64{float64(r.ID), 1}, func(a, b float64) float64 { return a + b })
			if out[0] != float64(p*(p-1)/2) || out[1] != p {
				panic("wrong reduction")
			}
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Collective return shapes match the simulator's contracts.
func TestCollectiveShapes(t *testing.T) {
	const p = 4
	m := NewMachine(p)
	_, err := m.Run(func(r *Rank) {
		q := r.ID
		// AllToAll: out[src] holds src's contribution for q.
		data := make([][]float64, p)
		sizes := make([]int, p)
		for i := 0; i < p; i++ {
			data[i] = []float64{float64(100*q + i)}
			sizes[i] = 8
		}
		out := r.AllToAll(sizes, data, xport.CollOpts{})
		for src := 0; src < p; src++ {
			if out[src][0] != float64(100*src+q) {
				panic("AllToAll misrouted")
			}
		}
		// AllGather: out[src] holds src's block everywhere.
		ag := r.AllGather(8, []float64{float64(q)}, xport.CollOpts{})
		for src := 0; src < p; src++ {
			if ag[src][0] != float64(src) {
				panic("AllGather misrouted")
			}
		}
		// GatherTo: root-indexed result, nil elsewhere.
		gt := r.GatherTo(0, 8, []float64{float64(q)}, xport.CollOpts{})
		if q == 0 {
			for src := 0; src < p; src++ {
				if gt[src][0] != float64(src) {
					panic("GatherTo misrouted")
				}
			}
		} else if gt != nil {
			panic("GatherTo leaked a result to a non-root")
		}
		// Bcast: every rank returns root's block.
		var seed []float64
		if q == 2 {
			seed = []float64{7, 8}
		}
		bc := r.Bcast(2, 16, seed, xport.CollOpts{})
		if bc[0] != 7 || bc[1] != 8 {
			panic("Bcast lost the block")
		}
		// Exchange: ring shift.
		got := r.Exchange((q+1)%p, (q+p-1)%p, collTags.Tag(15), xport.Msg{Payload: []float64{float64(q)}}, 0)
		if got.Payload[0] != float64((q+p-1)%p) {
			panic("Exchange misrouted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A rank panic aborts the run: blocked peers are woken and the joined
// error names the failing rank.
func TestPanicAbortsBlockedPeers(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			panic("boom")
		}
		r.Recv(0, 0) // would block forever without abort propagation
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0: boom") {
		t.Fatalf("expected rank 0 panic in error, got %v", err)
	}
}

// A receive whose sender has exited is a deadlock, not a hang.
func TestDeadlockDetection(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 1 {
			r.BeginPhase("solve")
			r.Recv(0, 5)
		}
		// Rank 0 exits immediately.
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "[phase solve]") {
		t.Fatalf("expected deadlock error with phase, got %v", err)
	}
}

// Result carries wall-clock time and per-rank traffic.
func TestResultTraffic(t *testing.T) {
	m := NewMachine(2)
	res, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 1000})
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Errorf("wall clock %v, want > 0", res.Wall)
	}
	if res.TotalMessages() != 1 || res.TotalBytes() != 1000 {
		t.Errorf("traffic = %d msgs / %d bytes, want 1 / 1000", res.TotalMessages(), res.TotalBytes())
	}
	if res.Ranks[1].MsgsRecvd != 1 || res.Ranks[1].BytesRecvd != 1000 {
		t.Errorf("rank 1 recv stats = %+v", res.Ranks[1])
	}
}

// The payload pool recycles across ranks (machine-wide), and Machines are
// reusable across Runs.
func TestPoolAndMachineReuse(t *testing.T) {
	m := NewMachine(2)
	for run := 0; run < 3; run++ {
		_, err := m.Run(func(r *Rank) {
			if r.ID == 0 {
				buf := r.GetPayload(64)
				buf[0] = 1
				r.Send(1, 0, xport.Msg{Payload: buf})
			} else {
				got := r.Recv(0, 0)
				r.PutPayload(got.Payload)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.store.GetPayload(64); cap(got) < 64 {
		t.Errorf("pool did not retain a recycled buffer")
	}
}

// Every rank sends one message to every peer in one seeded order and then
// receives from every peer in another, for two rounds on distinct tags
// with an AllReduce between them, so rendezvous waiters mix with receive
// waiters in the blocked-rank counter; odd seeds receive through Irecv
// (posted before the sends) and Wait. The program cannot deadlock, so
// every run must finish — a targeted wake-up lost or a blocked-rank count
// gone stale shows up here as a false deadlock or a hang. At p=2 (and p=4
// on a host with four CPUs) the receivers spin before they park, so a
// spinner wrongly counted as blocked shows up too.
func TestStressNoFalseDeadlock(t *testing.T) {
	for _, p := range []int{2, 4, 48} {
		stressNoFalseDeadlock(t, p)
	}
}

func stressNoFalseDeadlock(t *testing.T, p int) {
	const runs, rounds = 100, 2
	m := NewMachine(p)
	for seed := int64(0); seed < runs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sendOrder := make([][]int, p)
		recvOrder := make([][]int, p)
		for q := 0; q < p; q++ {
			sendOrder[q] = peersOf(q, rng.Perm(p))
			recvOrder[q] = peersOf(q, rng.Perm(p))
		}
		nonblocking := seed%2 == 1
		body := func(r *Rank) {
			for round := 0; round < rounds; round++ {
				if round > 0 {
					r.AllReduce([]float64{1}, func(a, b float64) float64 { return a + b })
				}
				var reqs []xport.Request
				if nonblocking {
					for _, src := range recvOrder[r.ID] {
						reqs = append(reqs, r.Irecv(src, round))
					}
				}
				for _, dst := range sendOrder[r.ID] {
					r.Send(dst, round, xport.Msg{Bytes: stressBytes(r.ID, dst, round)})
				}
				for i, src := range recvOrder[r.ID] {
					var msg xport.Msg
					if nonblocking {
						msg = reqs[i].Wait()
					} else {
						msg = r.Recv(src, round)
					}
					if want := stressBytes(src, r.ID, round); msg.Bytes != want {
						panic("mismatched message")
					}
				}
			}
		}
		var res Result
		done := make(chan error, 1)
		go func() {
			var err error
			res, err = m.Run(body)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("p=%d seed %d (nonblocking=%v): %v", p, seed, nonblocking, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("p=%d seed %d (nonblocking=%v): run hung", p, seed, nonblocking)
		}
		for q, s := range res.Ranks {
			if s.MsgsRecvd != rounds*(p-1) || s.MsgsSent != rounds*(p-1) {
				t.Fatalf("p=%d seed %d: rank %d sent %d / received %d messages, want %d each",
					p, seed, q, s.MsgsSent, s.MsgsRecvd, rounds*(p-1))
			}
		}
	}
}

// peersOf drops q from a permutation of the ranks.
func peersOf(q int, perm []int) []int {
	out := perm[:0]
	for _, v := range perm {
		if v != q {
			out = append(out, v)
		}
	}
	return out
}

// stressBytes is the size of the round's message from src to dst, unique
// per channel so a mismatched delivery is caught.
func stressBytes(src, dst, round int) int { return 8 * (1 + src + 100*dst + 10000*round) }
