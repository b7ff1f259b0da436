// The machine's messaging runs on the message core (internal/xport/mbox):
// per-rank inboxes of pending messages stamped with the virtual send time,
// the rendezvous behind Barrier and AllReduce, the exact deadlock counter
// and the machine-wide payload pool. This file holds the machine's
// accessors for that store.
package sim

import "genmp/internal/xport/mbox"

// PayloadPoolStats returns the machine's payload-pool traffic, cumulative
// across runs. Safe to call concurrently with a run.
func (m *Machine) PayloadPoolStats() mbox.PoolStats { return m.store.PoolStats() }

// GetPayload returns a length-n buffer for use as a message payload,
// recycled from the machine-wide pool when one of sufficient capacity is
// free (contents unspecified — overwrite fully).
func (r *Rank) GetPayload(n int) []float64 { return r.machine.store.GetPayload(n) }

// PutPayload returns a payload buffer to the machine-wide pool. Ownership
// follows the message: Send transfers the payload to the receiver, so only
// the receiver of a message may recycle it (after fully consuming it), and
// a sender must not touch a payload after Send. Callers who allocated a
// buffer themselves may of course recycle it too.
func (r *Rank) PutPayload(buf []float64) { r.machine.store.PutPayload(buf) }
