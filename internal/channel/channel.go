// Package channel implements the three enclave-to-enclave transfer paths
// the paper compares (§IV-C, §VI): the non-secure remote write (the
// baseline with no protection), the software secure channel (AES-GCM plus
// two extra memory copies — the state of the art MMT displaces), and MMT
// closure delegation.
//
// Each channel moves real bytes over the untrusted netsim interconnect and
// advances its node's simulated clock with costs from the sim.Profile, so
// one code path yields both functional results (what arrives, what is
// rejected) and the timing results of Table IV and Figures 10-14.
package channel

import (
	"errors"
	"fmt"

	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

// Stats accumulates per-channel cost categories, mirroring the breakdown
// rows of Table IV.
type Stats struct {
	Messages    int
	Bytes       int
	Memcpy      sim.Cycles // copies between secure and non-secure memory
	RemoteWrite sim.Cycles // NIC/DMA serialization
	Encrypt     sim.Cycles
	Decrypt     sim.Cycles
	Delegation  sim.Cycles // MMT closure fixed costs (seal/unseal/ack)
}

// Total reports the accumulated cycles across categories.
func (s Stats) Total() sim.Cycles {
	return s.Memcpy + s.RemoteWrite + s.Encrypt + s.Decrypt + s.Delegation
}

// Channel errors.
var (
	ErrEmpty  = errors.New("channel: no pending message")
	ErrClosed = errors.New("channel: peer rejected the transfer")
)

// common holds the pieces every channel shares: the network endpoint, the
// peer's name, the cost profile and the running stats.
type common struct {
	ep    *netsim.Endpoint
	peer  string
	prof  *sim.Profile
	stats Stats
	probe *trace.Probe // nil = tracing disabled
}

// Stats returns a snapshot of the channel's accumulated costs.
func (c *common) Stats() Stats { return c.stats }

// ResetStats zeroes the accumulated costs.
func (c *common) ResetStats() { c.stats = Stats{} }

// Clock exposes the endpoint clock (benchmarks bracket it).
func (c *common) Clock() *sim.Clock { return c.ep.Clock() }

// SetTrace attaches a trace probe mirroring every cost charge into its
// phase accumulator. Nil disables tracing.
func (c *common) SetTrace(p *trace.Probe) { c.probe = p }

// charge advances the clock and the given stat bucket, mirroring the
// cost into the trace phase so per-phase totals sum to Stats.Total().
func (c *common) charge(bucket *sim.Cycles, ph trace.Phase, n sim.Cycles) {
	*bucket += n
	c.probe.Charge(c.ep.Clock(), ph, n)
}

// NonSecure is the unprotected remote-write channel: payload bytes go onto
// the wire as-is. It is the "Baseline" configuration of Figures 13 and 14.
type NonSecure struct {
	common
}

// NewNonSecure builds one side of a non-secure channel.
func NewNonSecure(ep *netsim.Endpoint, peer string, prof *sim.Profile) *NonSecure {
	return &NonSecure{common{ep: ep, peer: peer, prof: prof}}
}

// Send pushes payload to the peer: one remote write, no crypto, no copies.
func (c *NonSecure) Send(payload []byte) error {
	c.charge(&c.stats.RemoteWrite, trace.PhaseDMA, c.prof.RemoteWriteCost(len(payload)))
	c.probe.RecordOp(trace.OpRemoteWrite, c.prof.RemoteWriteCost(len(payload)))
	c.stats.Messages++
	c.stats.Bytes += len(payload)
	c.ep.Send(c.peer, netsim.KindData, payload)
	return nil
}

// Recv pops the next payload.
func (c *NonSecure) Recv() ([]byte, error) {
	m, ok := c.ep.Recv()
	if !ok {
		return nil, ErrEmpty
	}
	if m.Kind != netsim.KindData {
		return nil, fmt.Errorf("channel: unexpected %v message on non-secure channel", m.Kind)
	}
	return m.Payload, nil
}
