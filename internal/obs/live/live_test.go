package live

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"genmp/internal/sim"
	"genmp/internal/xport"
)

// End-to-end scrape: Start wires the package defaults, a machine run
// reports through them, and the HTTP endpoint returns Prometheus text with
// nonzero message and pool-traffic series — what a curl of -metrics-addr
// during a benchmark run must show.
func TestStartServesLiveMachineMetrics(t *testing.T) {
	st, err := Start(Config{Addr: "127.0.0.1:0", FlightDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	m := sim.NewMachine(2, sim.Network{Latency: 1e-6, Bandwidth: 1e9}, sim.CPU{FlopsPerSec: 1e9})
	run := func() {
		t.Helper()
		if _, err := m.Run(func(r *sim.Rank) {
			buf := r.GetPayload(32)
			peer := 1 - r.ID
			r.Send(peer, 1, xport.Msg{Bytes: 256, Payload: buf})
			msg := r.Recv(peer, 1)
			r.PutPayload(msg.Payload)
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run() // second run recycles payloads: pool hits become nonzero

	resp, err := http.Get("http://" + st.Server.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"sim_messages_total 4",
		"sim_payload_pool_gets_total 4",
		"sim_runs_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	if !strings.Contains(text, "sim_payload_pool_hits_total 2") {
		t.Errorf("second run should recycle both payloads:\n%s", text)
	}

	// The default flight depth reached the machine Run built on.
	if m.Flight == nil || m.Flight.Depth() != 16 {
		t.Errorf("machine flight recorder = %+v, want depth 16", m.Flight)
	}

	jresp, err := http.Get("http://" + st.Server.Addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	jbody, err := io.ReadAll(jresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jbody), `"sim_messages_total"`) {
		t.Errorf("/metrics.json missing sim_messages_total: %s", jbody)
	}
}

// A zero config is inert: no registry, no server, no defaults flipped.
func TestStartZeroConfigIsInert(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if st.Registry != nil || st.Server != nil {
		t.Fatalf("zero config built state: %+v", st)
	}
	m := sim.NewMachine(2, sim.Network{Latency: 1e-6, Bandwidth: 1e9}, sim.CPU{FlopsPerSec: 1e9})
	if _, err := m.Run(func(r *sim.Rank) {}); err != nil {
		t.Fatal(err)
	}
	if m.Flight != nil || m.PProfLabels {
		t.Errorf("zero config leaked observability onto the machine: flight=%v labels=%v", m.Flight, m.PProfLabels)
	}
}
