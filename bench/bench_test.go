package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"genmp/internal/adi"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/xport"
)

// The ported bodies must reproduce dmem's drivers bit for bit, the
// decorator must count exactly the traffic rt reports, and the plans must
// declare that traffic.
func TestPortMatchesDmem(t *testing.T) {
	eta := []int{12, 12, 12}
	for _, p := range []int{2, 4} {
		for _, app := range []rtApp{spApp(eta, 2), adiApp(adi.Problem{Eta: eta, Alpha: 0.27, Steps: 3})} {
			name := app.solver.Name()
			c, err := chain(nil, p, eta, func(env *dist.Env) (*plan.SweepPlan, error) {
				return dmem.CompileSweepPlan(env, app.solver)
			}, counts{})
			if err != nil {
				t.Fatal(err)
			}
			want, wantRes, err := app.real(c.env, rt.NewMachine(p), c.plan)
			if err != nil {
				t.Fatal(err)
			}
			got, _, res, msgs, bytes, err := runTraced(rt.NewMachine(p), app.body(c.env, c.plan), time.Now(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(want, got); err != nil {
				t.Errorf("%s p=%d: %v", name, p, err)
			}
			if msgs != res.TotalMessages() || bytes != res.TotalBytes() {
				t.Errorf("%s p=%d: decorator counted %d msgs %d bytes, rt %d and %d", name, p, msgs, bytes, res.TotalMessages(), res.TotalBytes())
			}
			if res.TotalMessages() != wantRes.TotalMessages() || res.TotalBytes() != wantRes.TotalBytes() {
				t.Errorf("%s p=%d: port moved %d msgs %d bytes, dmem %d and %d", name, p, res.TotalMessages(), res.TotalBytes(), wantRes.TotalMessages(), wantRes.TotalBytes())
			}
			dm, db, err := declaredTraffic(c, app.halo, app.steps)
			if err != nil {
				t.Fatal(err)
			}
			if dm != msgs || db != bytes {
				t.Errorf("%s p=%d: plans declare %d msgs %d bytes, decorator counted %d and %d", name, p, dm, db, msgs, bytes)
			}
		}
	}
}

// The decorator's collective counts follow rt's direct algorithms.
func TestDecoratorCollectiveCounts(t *testing.T) {
	const p = 3
	m := rt.NewMachine(p)
	ts := make([]*tracedTransport, p)
	res, err := m.Run(func(r *rt.Rank) {
		tt := &tracedTransport{Transport: r, rec: newRecorder(time.Now(), 0, r.ID)}
		ts[r.ID] = tt
		q := tt.Rank()
		next, prev := (q+1)%p, (q+p-1)%p
		tt.Send(next, 1, xport.Msg{Payload: make([]float64, 3)})
		tt.Recv(prev, 1)
		tt.SendRecv(next, 2, xport.Msg{Bytes: 40}, prev, 2)
		rq := tt.Irecv(prev, 3)
		sq := tt.Isend(next, 3, xport.Msg{Payload: make([]float64, q+1)})
		tt.WaitAll(sq, rq)
		tt.Exchange(next, prev, 4, xport.Msg{Payload: make([]float64, 2)}, 0)
		tt.AllToAll([]int{8, 16, 24}, nil, xport.CollOpts{})
		tt.AllGather(32, make([]float64, 4), xport.CollOpts{})
		tt.GatherTo(1, 48, make([]float64, 6), xport.CollOpts{})
		tt.Bcast(2, 56, make([]float64, 7), xport.CollOpts{})
		tt.Barrier()
		tt.AllReduce([]float64{1}, func(a, b float64) float64 { return a + b })
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes := 0, 0
	for _, tt := range ts {
		msgs += tt.msgs
		bytes += tt.bytes
	}
	if msgs != res.TotalMessages() || bytes != res.TotalBytes() {
		t.Errorf("decorator counted %d msgs %d bytes, rt %d and %d", msgs, bytes, res.TotalMessages(), res.TotalBytes())
	}
}

func TestQuantileAndIQR(t *testing.T) {
	tens := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{tens, 0.9, 9.1},
		{tens, 0.5, 5.5},
		{tens, 0, 1},
		{tens, 1, 10},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8}); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("iqr(1..8) = %g, want 3.5", got)
	}
	if tens[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	// A[0,100] holds B[10,40] (which holds C[20,30]) and D[50,60]; a second
	// top-level B[100,105] adds to B's total.
	spans := []span{
		{Name: "A", Start: 0, End: 100, Parent: -1},
		{Name: "B", Start: 10, End: 40, Parent: 0},
		{Name: "C", Start: 20, End: 30, Parent: 1},
		{Name: "D", Start: 50, End: 60, Parent: 0},
		{Name: "B", Start: 100, End: 105, Parent: -1},
	}
	want := map[string]int64{"A": 60, "B": 25, "C": 10, "D": 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Two ranks: rank 0 busy 3 ms outside rt, rank 1 busy 1 ms and waiting
	// 2 ms in rt, so the mean rank spends 2 ms in x and 1 ms waiting, and
	// the imbalance is 3/2 − 1.
	ms := int64(time.Millisecond)
	ranks := [][]span{
		{{Name: "x", Start: 0, End: 3 * ms, Parent: -1}},
		{{Name: "x", Start: 0, End: 3 * ms, Parent: -1}, {Name: "rt.recv", Start: ms, End: 3 * ms, Parent: 0}},
	}
	got := layerSample(ranks)
	if math.Abs(got["x_ms"]-2) > 1e-12 || math.Abs(got["rt.wait_ms"]-1) > 1e-12 || math.Abs(got["rt.imbalance"]-0.5) > 1e-12 {
		t.Errorf("layerSample = %v", got)
	}
}

// samePlan stands in for comparing Fingerprints on every plan-p360 op.
func TestSamePlanAgreesWithFingerprint(t *testing.T) {
	eta := []int{12, 12, 12}
	a, err := chain(nil, 6, eta, nas.CompilePlan, counts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chain(nil, 6, eta, nas.CompilePlan, counts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := samePlan(a.plan, b.plan); err != nil || a.plan.Fingerprint() != b.plan.Fingerprint() {
		t.Fatalf("two compiles differ: samePlan %v, fingerprints equal %v", err, a.plan.Fingerprint() == b.plan.Fingerprint())
	}
	c, err := chain(nil, 6, eta, nas.CompilePlan, counts{})
	if err != nil {
		t.Fatal(err)
	}
	c.plan.Passes[5][1].Phases[0].Tiles[0].LineOff++
	if samePlan(a.plan, c.plan) == nil || a.plan.Fingerprint() == c.plan.Fingerprint() {
		t.Error("a changed tile offset went unnoticed")
	}
}

// BENCHMARK.json must list exactly the metrics and workloads the command
// reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, command reports %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, command reports %v", bj.PerLayer, perLayer)
	}
	ws := workloads(1)
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), command %q (%s)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
}
