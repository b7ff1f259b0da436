package rt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"genmp/internal/obs/metrics"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// collOp is one collective call on every rank; it returns what the rank
// received.
type collOp struct {
	name string
	call func(r *Rank, o xport.CollOpts) [][]float64
}

// collOps covers every collective with data that differs per origin and
// destination, and roots away from rank 0.
func collOps() []collOp {
	return []collOp{
		{"alltoall", func(r *Rank, o xport.CollOpts) [][]float64 {
			p, q := r.P(), r.ID
			sizes := make([]int, p)
			data := make([][]float64, p)
			for i := range data {
				data[i] = make([]float64, 1+(q+i)%3)
				for k := range data[i] {
					data[i][k] = float64(100*q + 10*i + k)
				}
				sizes[i] = 8 * len(data[i])
			}
			return r.AllToAll(sizes, data, o)
		}},
		{"allgather", func(r *Rank, o xport.CollOpts) [][]float64 {
			mine := []float64{float64(r.ID), float64(r.ID) + 0.5}
			return r.AllGather(16, mine, o)
		}},
		{"gather", func(r *Rank, o xport.CollOpts) [][]float64 {
			mine := make([]float64, 1+r.ID%2)
			for k := range mine {
				mine[k] = float64(10*r.ID + k)
			}
			return r.GatherTo(r.P()/2, 8*len(mine), mine, o)
		}},
		{"bcast", func(r *Rank, o xport.CollOpts) [][]float64 {
			root := r.P() - 1
			var data []float64
			if r.ID == root {
				data = []float64{7, 8, 9}
			}
			return [][]float64{r.Bcast(root, 24, data, o)}
		}},
		{"exchange", func(r *Rank, o xport.CollOpts) [][]float64 {
			p, q := r.P(), r.ID
			m := xport.Msg{Payload: []float64{float64(q), float64(q * q)}}
			return [][]float64{r.Exchange((q+1)%p, (q+p-1)%p, collTags.Tag(14), m, o.PerMessage).Payload}
		}},
	}
}

// collRun is what one machine's run of an op delivered: per rank the
// received blocks and the traffic counts.
type collRun struct {
	got     [][][]float64
	traffic [][4]int
}

func runColl(t *testing.T, m *Machine, op collOp, o xport.CollOpts) collRun {
	t.Helper()
	got := make([][][]float64, m.P)
	res, err := m.Run(func(r *Rank) {
		for _, b := range op.call(r, o) {
			got[r.ID] = append(got[r.ID], append([]float64(nil), b...))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := collRun{got: got}
	for _, s := range res.Ranks {
		out.traffic = append(out.traffic, [4]int{s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv})
	}
	return out
}

// Every collective under every algorithm delivers the same payloads with
// the same per-rank messages and bytes on rt as on the simulator, whether
// the algorithm comes from the call's options or the machine's default.
// Ring and Bruck forward bundles between ranks, so CI runs this under
// several GOMAXPROCS values.
func TestCollectivesAgreeAcrossBackends(t *testing.T) {
	algs := []xport.Alg{xport.AlgAuto, xport.AlgPairwise, xport.AlgRing, xport.AlgDoubling, xport.AlgBruck}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, op := range collOps() {
			for _, alg := range algs {
				for _, viaMachine := range []bool{false, true} {
					name := fmt.Sprintf("p=%d/%s/%s/machine=%v", p, op.name, alg, viaMachine)
					simM := sim.NewMachine(p, sim.Network{Latency: 5e-6, Bandwidth: 1e8}, sim.CPU{FlopsPerSec: 1e9})
					rtM := NewMachine(p)
					o := xport.CollOpts{Alg: alg, PerMessage: 1e-6}
					if viaMachine {
						simM.Coll, rtM.Coll = alg, alg
						o.Alg = xport.AlgAuto
					}
					want, got := runColl(t, simM, op, o), runColl(t, rtM, op, o)
					if !reflect.DeepEqual(got.got, want.got) {
						t.Errorf("%s: rt delivered %v, simulator %v", name, got.got, want.got)
					}
					if !reflect.DeepEqual(got.traffic, want.traffic) {
						t.Errorf("%s: rt per-rank traffic (msgs sent, bytes sent, msgs recv, bytes recv) %v, simulator %v",
							name, got.traffic, want.traffic)
					}
				}
			}
		}
	}
}

// The package defaults reach rt machines: under a default flight depth a
// deadlocked run's error carries the flight report.
func TestDefaultFlightRecorderReachesRT(t *testing.T) {
	sim.SetDefaultFlightDepth(8)
	defer sim.SetDefaultFlightDepth(0)
	_, err := NewMachine(2).Run(func(r *Rank) {
		r.BeginPhase("solve")
		if r.ID == 0 {
			r.Send(1, 3, xport.Msg{Bytes: 64})
		}
		r.Recv(1-r.ID, 4)
	})
	if err == nil {
		t.Fatal("deadlocked run returned nil error")
	}
	for _, want := range []string{
		"rt: rank 0: ",
		"[phase solve]",
		"flight recorder (last 8 events per rank)",
		"rank 1  BLOCKED in Recv(src=0, tag=4)",
		"rank 0 -> rank 1 tag 3: 1 message(s), 64 bytes",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not contain %q:\n%v", want, err)
		}
	}
}

// Under a default metrics registry an rt run counts its messages under the
// simulator's metric names, and its ranks hand the registry to executors.
func TestDefaultMetricsReachRT(t *testing.T) {
	reg := metrics.New()
	sim.SetDefaultMetrics(reg)
	defer sim.SetDefaultMetrics(nil)
	const p = 3
	_, err := NewMachine(p).Run(func(r *Rank) {
		if r.MetricsRegistry() != reg {
			panic("rank does not report to the default registry")
		}
		r.Send((r.ID+1)%p, 0, xport.Msg{Bytes: 32})
		r.Recv((r.ID+p-1)%p, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if v, _ := s.Value("sim_messages_total"); v != p {
		t.Errorf("sim_messages_total = %g, want %d", v, p)
	}
	if v, _ := s.Value("sim_bytes_total"); v != 32*p {
		t.Errorf("sim_bytes_total = %g, want %d", v, 32*p)
	}
}
