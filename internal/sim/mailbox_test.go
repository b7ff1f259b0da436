package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"genmp/internal/obs/metrics"
	"genmp/internal/xport"
)

// Every rank sends one message to every peer in one seeded order and then
// receives from every peer in another, for two rounds on distinct tags;
// odd seeds receive through Irecv (posted before the sends) and Wait. The
// program cannot deadlock, so every run must finish — a targeted wake-up
// lost or a blocked-rank count gone stale shows up here as a false
// deadlock or a hang. At p=2 (and p=4 on a host with four CPUs) the
// receivers spin before they park, so a spinner wrongly counted as blocked
// shows up too.
func TestMailboxStressNoFalseDeadlock(t *testing.T) {
	for _, p := range []int{2, 4, 48} {
		mailboxStressNoFalseDeadlock(t, p)
	}
}

func mailboxStressNoFalseDeadlock(t *testing.T, p int) {
	const runs, rounds = 100, 2
	m := testMachine(p)
	for seed := int64(0); seed < runs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sendOrder := make([][]int, p)
		recvOrder := make([][]int, p)
		for q := 0; q < p; q++ {
			sendOrder[q] = peersOf(q, rng.Perm(p))
			recvOrder[q] = peersOf(q, rng.Perm(p))
		}
		nonblocking := seed%2 == 1
		res, err := m.Run(func(r *Rank) {
			for round := 0; round < rounds; round++ {
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
		})
		if err != nil {
			t.Fatalf("p=%d seed %d (nonblocking=%v): %v", p, seed, nonblocking, err)
		}
		for q, s := range res.Ranks {
			if s.MsgsRecv != rounds*(p-1) || s.MsgsSent != rounds*(p-1) {
				t.Fatalf("p=%d seed %d: rank %d sent %d / received %d messages, want %d each",
					p, seed, q, s.MsgsSent, s.MsgsRecv, rounds*(p-1))
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

// A warmed machine allocates nothing per message: a 2-rank ring run that
// passes 1000 messages per rank through the message core and the payload
// pool allocates exactly as much as one that passes 10. Everything a run
// costs once (rank goroutines, stats) is the same in both, so any
// difference is an allocation per message.
func TestWarmMachineAllocatesNothingPerMessage(t *testing.T) {
	allocs := func(n int) float64 {
		m := testMachine(2)
		body := func(r *Rank) {
			next := (r.ID + 1) % m.P
			prev := (r.ID + m.P - 1) % m.P
			for i := 0; i < n; i++ {
				buf := r.GetPayload(4)
				buf[0] = float64(i)
				got := r.SendRecv(next, 3, xport.Msg{Payload: buf}, prev, 3)
				if got.Payload[0] != float64(i) {
					panic("mismatched message")
				}
				r.PutPayload(got.Payload)
			}
		}
		if _, err := m.Run(body); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Run(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(1000)
	if many != few {
		t.Errorf("a run of 1000 messages per rank allocates %v, one of 10 allocates %v: want the same", many, few)
	}
}

// A true deadlock at p=64: after a healthy ring exchange, three ranks wait
// for messages nobody sends (one through Irecv/Wait) and three ranks leave
// messages nobody receives; everybody else exits. The run must fail with a
// deadlock, count one in sim_deadlocks_total, and the flight report must
// name exactly the blocked ranks with their (src, tag) and list the
// undelivered channels in (src, dst, tag) order. A healthy run on the same
// machine right after must succeed with no stale wait or queue state.
func TestMailboxDeadlockP64(t *testing.T) {
	const p = 64
	reg := metrics.New()
	m := testMachine(p)
	m.Metrics = reg
	m.Flight = NewFlightRecorder(8)
	blocked := map[int]msgKey{
		5:  {src: 9, dst: 5, tag: 70},
		17: {src: 3, dst: 17, tag: 71},
		40: {src: 63, dst: 40, tag: 72}, // waits through Irecv/Wait
	}
	orphans := []msgKey{ // sent, never received; deliberately unsorted
		{src: 60, dst: 2, tag: 80},
		{src: 1, dst: 33, tag: 82},
		{src: 1, dst: 33, tag: 81},
		{src: 2, dst: 0, tag: 80},
	}
	_, err := m.Run(func(r *Rank) {
		ringBody(m)(r)
		for _, k := range orphans {
			if k.src == r.ID {
				r.Send(k.dst, k.tag, xport.Msg{Bytes: 64})
			}
		}
		if k, ok := blocked[r.ID]; ok {
			if r.ID == 40 {
				r.Irecv(k.src, k.tag).Wait()
			} else {
				r.Recv(k.src, k.tag)
			}
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want a deadlock error, got %v", err)
	}
	if v, _ := reg.Snapshot().Value("sim_deadlocks_total"); v != 1 {
		t.Errorf("sim_deadlocks_total = %g, want 1", v)
	}
	rep := m.FlightReport()
	if named := strings.Count(rep, "BLOCKED"); named != len(blocked) {
		t.Errorf("report names %d BLOCKED ranks, want %d:\n%s", named, len(blocked), rep)
	}
	for q, k := range blocked {
		if want := fmt.Sprintf("rank %d  BLOCKED in Recv(src=%d, tag=%d)", q, k.src, k.tag); !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	sort.Slice(orphans, func(a, b int) bool {
		x, y := orphans[a], orphans[b]
		if x.src != y.src {
			return x.src < y.src
		}
		if x.dst != y.dst {
			return x.dst < y.dst
		}
		return x.tag < y.tag
	})
	var want []string
	for _, k := range orphans {
		want = append(want, fmt.Sprintf("  rank %d -> rank %d tag %d: 1 message(s), 64 bytes", k.src, k.dst, k.tag))
	}
	_, tail, ok := strings.Cut(rep, "sent but never received:\n")
	if !ok {
		t.Fatalf("report has no undelivered section:\n%s", rep)
	}
	if got := strings.Split(strings.TrimRight(tail, "\n"), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("undelivered channels:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// The same machine runs a healthy program next: reset must clear every
	// inbox's wait state and recycle the orphaned messages.
	if _, err := m.Run(ringBody(m)); err != nil {
		t.Fatalf("healthy run after a deadlock: %v", err)
	}
	if rep := m.FlightReport(); strings.Contains(rep, "BLOCKED") || strings.Contains(rep, "never received") {
		t.Errorf("stale post-mortem state after a healthy run:\n%s", rep)
	}
	if v, _ := reg.Snapshot().Value("sim_deadlocks_total"); v != 1 {
		t.Errorf("sim_deadlocks_total = %g after the healthy run, want 1", v)
	}
}
