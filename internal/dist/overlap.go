// Boundary-first overlapped phase execution (DESIGN.md §14). A phase
// annotated with a split (plan.Phase.Boundary > 0) runs as:
//
//	wait boundary carries → solve boundary lines → Isend boundary carry
//	→ prepost next phase's receives → wait interior carries
//	→ solve interior lines → Isend interior carry
//
// so the downstream rank starts its boundary solve after only the boundary
// share of the compute, and each rank's interior solve executes while its
// boundary carry is on the wire. Field data is bit-identical to the strict
// schedule: the batched kernels guarantee bit-equality however lines are
// batched and laid out, and the boundary/interior regrouping never
// reorders lines.
//
// RunPass is the one executor behind every sweep — the wavefront pipeline
// and the private-tile SweepRunner — so this choreography exists once,
// solving each half with the pass loop's own range solver.
package dist

import "genmp/internal/xport"

// overlapPhase executes split phase k. preB/preI are this phase's receive
// requests if the previous phase preposted them (nil to post here); the
// return values are the next phase's preposted requests (nil when the next
// phase is unsplit or absent).
func (x *passRun) overlapPhase(k int, preB, preI xport.Request) (nextB, nextI xport.Request) {
	t, pp := x.t, x.Pass
	ph := &pp.Phases[k]
	carryLen := pp.CarryLen
	perMessage := x.Overhead.PerMessage
	bnd, inter := ph.InteriorBoundary()

	var reqB, reqI xport.Request
	if ph.RecvFrom >= 0 && carryLen > 0 {
		reqB, reqI = preB, preI
		if reqB == nil {
			reqB = t.Irecv(ph.RecvFrom, ph.RecvTag)
			reqI = t.Irecv(ph.RecvFrom, ph.InteriorRecvTag)
		}
	}

	var outB, outI []float64
	if ph.SendTo >= 0 && carryLen > 0 && x.Bind != nil {
		outB = t.GetPayload(bnd * carryLen)
		outI = t.GetPayload(inter * carryLen)
	}

	// Boundary: wait the boundary carries, solve the boundary lines, ship
	// their carries immediately.
	var inB []float64
	if reqB != nil {
		msg := reqB.Wait()
		t.Compute(perMessage)
		inB = msg.Payload
	}
	x.solve(k, 0, bnd, inB, outB)
	if inB != nil {
		t.PutPayload(inB)
	}
	var sendB, sendI xport.Request
	if ph.SendTo >= 0 && carryLen > 0 {
		t.Compute(perMessage)
		sendB = t.Isend(ph.SendTo, ph.SendTag, xport.Msg{Bytes: bnd * carryLen * 8, Payload: outB})
	}

	// The boundary carry is on the wire. Prepost the next phase's receives
	// (free in virtual time; the MPI discipline the real-parallel machine
	// runs too), then solve the interior while the messages fly.
	if k+1 < len(pp.Phases) {
		if np := &pp.Phases[k+1]; np.Boundary > 0 && np.RecvFrom >= 0 && carryLen > 0 {
			nextB = t.Irecv(np.RecvFrom, np.RecvTag)
			nextI = t.Irecv(np.RecvFrom, np.InteriorRecvTag)
		}
	}

	var inI []float64
	if reqI != nil {
		msg := reqI.Wait()
		t.Compute(perMessage)
		inI = msg.Payload
	}
	x.solve(k, bnd, ph.Lines, inI, outI)
	if inI != nil {
		t.PutPayload(inI)
	}
	if ph.SendTo >= 0 && carryLen > 0 {
		t.Compute(perMessage)
		sendI = t.Isend(ph.SendTo, ph.InteriorSendTag, xport.Msg{Bytes: inter * carryLen * 8, Payload: outI})
	}
	if sendB != nil {
		sendB.Wait()
	}
	if sendI != nil {
		sendI.Wait()
	}
	return nextB, nextI
}
