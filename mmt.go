// Package mmt is the public face of this repository: a functional
// simulation of "Efficient Distributed Secure Memory with Migratable
// Merkle Tree" (HPCA 2023). It builds distributed secure memory out of
// per-machine MMT controllers, a global attestation authority, trusted
// monitors, and an untrusted interconnect, and lets enclaves move secure
// buffers between machines with MMT closure delegation — no
// re-encryption, with confidentiality, integrity and freshness enforced
// end to end.
//
// The five-minute tour:
//
//	cluster, _ := mmt.New()
//	alice, _ := cluster.AddMachine("alice")
//	bob, _ := cluster.AddMachine("bob")
//
//	sender := alice.Spawn("producer", []byte("app-code"))
//	receiver := bob.Spawn("consumer", []byte("app-code"))
//
//	link, _ := cluster.Connect(sender, receiver)
//	buf, _ := link.NewBuffer(sender)
//	buf.Write(0, []byte("secret bytes"))
//	link.Delegate(buf, mmt.OwnershipTransfer)
//
//	got, _ := link.Receive(receiver)
//	data, _ := got.Read(0, 12)
//
// Everything observable is real: the bytes on the simulated wire are the
// encrypted closure (attach an Interposer with Cluster.SetInterposer and
// the receiver rejects tampered transfers), and all timing comes from the
// calibrated simulated clocks, not the host.
//
// Cluster state is first-class and portable: Cluster.Save streams a
// verified snapshot to any io.Writer, mmt.Load rebuilds an identical
// cluster from it (in the same process or another one), WithStore /
// Cluster.Checkpoint / mmt.Open give continuous crash-consistent
// checkpointing on disk, and Link.Export / Link.Import move a single
// delegated buffer between processes as a typed Artifact.
package mmt

import (
	"fmt"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/enclave"
	"mmt/internal/engine"
	"mmt/internal/mem"
	"mmt/internal/monitor"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/store"
	"mmt/internal/tree"
)

// TransferMode selects delegation semantics (§V-B2 of the paper).
type TransferMode = core.TransferMode

// Re-exported transfer modes.
const (
	// OwnershipTransfer moves the buffer: the sender's copy is invalidated
	// once the receiver accepts.
	OwnershipTransfer = core.OwnershipTransfer
	// OwnershipCopy sends a read-only snapshot; the sender keeps writing.
	OwnershipCopy = core.OwnershipCopy
)

// Cluster is a set of attested machines on a shared untrusted network,
// rooted in one manufacturer and one attestation authority.
type Cluster struct {
	set         settings
	geometry    tree.Geometry
	mfr         *attest.Manufacturer
	authority   *attest.Authority
	measurement attest.Measurement
	net         *netsim.Network
	machines    map[string]*Machine
	// machineOrder and linkOrder record creation order so snapshots
	// enumerate state deterministically (map iteration is not).
	machineOrder []string
	links        map[string]*Link
	linkOrder    []string
	debug        *debugServer
	ckpt         *store.Store
	// needBase is set whenever the cluster's structure changes (machines,
	// enclaves, links, buffer allocation or delegation): the next
	// Checkpoint then writes a full base snapshot instead of dirty deltas.
	needBase bool
}

func newCluster(s settings) (*Cluster, error) {
	geo := tree.ForLevels(s.treeLevels)
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if s.series != nil {
		if s.trace == nil {
			return nil, fmt.Errorf("mmt: WithSampling requires WithTracing (the sampler records into the trace sink)")
		}
		if err := s.trace.EnableSeries(*s.series); err != nil {
			return nil, err
		}
	}
	mfr, err := attest.NewManufacturer()
	if err != nil {
		return nil, err
	}
	authority, err := attest.NewAuthority(mfr.PublicKey())
	if err != nil {
		return nil, err
	}
	measurement := attest.MeasureSoftware([]byte("mmt-monitor-v1"))
	authority.AllowMeasurement(measurement)
	c := &Cluster{
		set:         s,
		geometry:    geo,
		mfr:         mfr,
		authority:   authority,
		measurement: measurement,
		net:         netsim.NewNetwork(s.netLatency),
		machines:    make(map[string]*Machine),
		links:       make(map[string]*Link),
		needBase:    true,
	}
	if s.debugAddr != "" {
		dbg, err := startDebugServer(s.debugAddr, s.trace)
		if err != nil {
			return nil, err
		}
		c.debug = dbg
	}
	if s.storePath != "" {
		st, err := store.Open(store.Dir{Path: s.storePath})
		if err != nil {
			c.closeDebug()
			return nil, err
		}
		if st.HasCommit() {
			st.Close()
			c.closeDebug()
			return nil, fmt.Errorf("mmt: store %q already holds a committed snapshot (epoch %d); resume it with mmt.Open", s.storePath, st.Epoch())
		}
		c.ckpt = st
	}
	return c, nil
}

// markStructural notes a change the delta encoding cannot express
// (membership, links, capability moves): the next checkpoint re-bases.
func (c *Cluster) markStructural() { c.needBase = true }

// DebugAddr reports the listening address of the /debug server ("" when
// WithDebugServer was not used). With a ":0" request this is the actual
// port picked by the kernel.
func (c *Cluster) DebugAddr() string {
	if c.debug == nil {
		return ""
	}
	return c.debug.addr()
}

func (c *Cluster) closeDebug() error {
	if c.debug == nil {
		return nil
	}
	err := c.debug.close()
	c.debug = nil
	return err
}

// Close releases host-side resources. With a store attached (WithStore,
// Open) it first writes a final checkpoint, so a cleanly closed cluster
// always resumes from its latest state; the checkpoint requires the
// cluster to be quiescent (ErrNotQuiescent otherwise — deliver in-flight
// messages first, then Close again). The simulated state itself is
// unaffected; a cluster without a store or debug server needs no Close.
func (c *Cluster) Close() error {
	var ckptErr error
	if c.ckpt != nil {
		ckptErr = c.Checkpoint()
		if err := c.ckpt.Close(); ckptErr == nil {
			ckptErr = err
		}
		c.ckpt = nil
	}
	if err := c.closeDebug(); ckptErr == nil {
		ckptErr = err
	}
	return ckptErr
}

// Geometry reports the cluster's tree geometry.
func (c *Cluster) Geometry() tree.Geometry { return c.geometry }

// Machine is one attested host: controller, monitor and TEEOS runtime.
type Machine struct {
	name    string
	cluster *Cluster
	ident   *attest.Machine
	mon     *monitor.Monitor
	rt      *enclave.Runtime
	// enclaves in spawn order, for deterministic snapshot enumeration.
	enclaves []*Enclave
}

// AddMachine provisions a machine with the cluster's manufacturer, boots
// its monitor through global attestation, and attaches it to the network.
func (c *Cluster) AddMachine(name string) (*Machine, error) {
	if _, dup := c.machines[name]; dup {
		return nil, fmt.Errorf("mmt: machine %q already exists", name)
	}
	machine, err := c.mfr.Provision(name)
	if err != nil {
		return nil, err
	}
	m, err := c.buildMachine(name, machine)
	if err != nil {
		return nil, err
	}
	c.machines[name] = m
	c.machineOrder = append(c.machineOrder, name)
	c.markStructural()
	return m, nil
}

// buildMachine assembles the controller/monitor/runtime stack around an
// attested identity. Shared by AddMachine and snapshot restore (which
// supplies a restored identity instead of a freshly provisioned one).
func (c *Cluster) buildMachine(name string, machine *attest.Machine) (*Machine, error) {
	pm := mem.New(mem.Config{
		Size:          c.set.regions * c.geometry.DataSize(),
		RegionSize:    c.geometry.DataSize(),
		MetaPerRegion: c.geometry.MetaSize(),
	})
	ctl, err := engine.New(pm, c.geometry, nil, c.set.profile)
	if err != nil {
		return nil, err
	}
	// One trace process per machine; Probe on a nil sink returns the
	// disabled (nil) probe, so an untraced cluster stays allocation-free.
	pr := c.set.trace.Probe(name)
	ctl.SetTrace(pr)
	// With sampling on, the machine's clock drives the windowed sampler:
	// each window crossing snapshots this machine's accumulator deltas.
	if cfg, ok := c.set.trace.SeriesConfigured(); ok {
		ctl.Clock().SetWindowHook(cfg.WindowShift, pr.ObserveWindow)
	}
	mon := monitor.New(machine, c.measurement, c.authority.PublicKey(), ctl)
	if err := mon.Boot(c.authority); err != nil {
		return nil, fmt.Errorf("mmt: attesting %q: %w", name, err)
	}
	if err := mon.AttachNetwork(c.net, name); err != nil {
		return nil, err
	}
	return &Machine{name: name, cluster: c, ident: machine, mon: mon, rt: enclave.NewRuntime(mon)}, nil
}

// Machine looks up a machine by name.
func (c *Cluster) Machine(name string) (*Machine, bool) {
	m, ok := c.machines[name]
	return m, ok
}

// Machines lists the cluster's machines in the order they were added.
func (c *Cluster) Machines() []*Machine {
	out := make([]*Machine, 0, len(c.machineOrder))
	for _, name := range c.machineOrder {
		out = append(out, c.machines[name])
	}
	return out
}

// Name reports the machine's network name.
func (m *Machine) Name() string { return m.name }

// NodeID reports the machine's attested integrity-forest node id.
func (m *Machine) NodeID() uint16 { return uint16(m.mon.NodeID()) }

// Clock reports the machine's simulated clock.
func (m *Machine) Clock() *sim.Clock { return m.mon.Node().Controller().Clock() }

// Enclave is a running enclave on one machine.
type Enclave struct {
	machine *Machine
	name    string
	id      monitor.EnclaveID
	rt      *enclave.Enclave
}

// Spawn starts an enclave on the machine, measured from its code image.
func (m *Machine) Spawn(name string, image []byte) *Enclave {
	e := m.rt.Spawn(name, image)
	enc := &Enclave{machine: m, name: name, id: e.ID(), rt: e}
	m.enclaves = append(m.enclaves, enc)
	m.cluster.markStructural()
	return enc
}

// Enclaves lists the machine's enclaves in spawn order.
func (m *Machine) Enclaves() []*Enclave {
	out := make([]*Enclave, len(m.enclaves))
	copy(out, m.enclaves)
	return out
}

// Machine reports the enclave's host.
func (e *Enclave) Machine() *Machine { return e.machine }

// Name reports the name the enclave was spawned with.
func (e *Enclave) Name() string { return e.name }
