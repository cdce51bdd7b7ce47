package mmt

import (
	"bytes"
	"errors"
	"math"
	"runtime/debug"
	"testing"

	"mmt/internal/tree"
)

// tamperFunc adapts a function to the public Interposer interface.
type tamperFunc func(WireMessage) []WireMessage

func (f tamperFunc) Intercept(m WireMessage) []WireMessage { return f(m) }

// wireSpy captures every payload on the wire without modifying anything.
type wireSpy struct {
	Captured [][]byte
}

func (s *wireSpy) Intercept(m WireMessage) []WireMessage {
	s.Captured = append(s.Captured, append([]byte(nil), m.Payload...))
	return []WireMessage{m}
}

// smallCluster uses the 2-level (64K) tree so full-stack tests stay fast.
func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(WithTreeLevels(2), WithRegions(6))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func twoMachines(t *testing.T) (*Cluster, *Machine, *Machine) {
	t.Helper()
	c := smallCluster(t)
	a, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b
}

func TestClusterBootAndIdentity(t *testing.T) {
	_, a, b := twoMachines(t)
	if a.NodeID() == 0 || b.NodeID() == 0 || a.NodeID() == b.NodeID() {
		t.Fatalf("bad node ids: %d %d", a.NodeID(), b.NodeID())
	}
	if a.Name() != "alice" {
		t.Fatal("name wrong")
	}
}

func TestDuplicateMachineRejected(t *testing.T) {
	c := smallCluster(t)
	if _, err := c.AddMachine("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMachine("x"); err == nil {
		t.Fatal("duplicate machine accepted")
	}
	if _, ok := c.Machine("x"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Machine("ghost"); ok {
		t.Fatal("phantom machine")
	}
}

func TestEndToEndOwnershipTransfer(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", []byte("code-a"))
	receiver := b.Spawn("consumer", []byte("code-b"))
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}

	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("the complete works, encrypted at rest and in flight")
	if err := buf.Write(100, secret); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}

	got, err := link.Receive(receiver)
	if err != nil {
		t.Fatal(err)
	}
	data, err := got.Read(100, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, secret) {
		t.Fatal("payload corrupted in delegation")
	}
	if got.ReadOnly() {
		t.Fatal("ownership transfer should be writable")
	}
	if err := got.Write(0, []byte("receiver owns it")); err != nil {
		t.Fatal(err)
	}
	// Sender's buffer is consumed.
	if _, err := buf.Read(0, 1); err == nil {
		t.Fatal("sender buffer still readable after ownership transfer")
	}
	// No second receive pending.
	if _, err := link.Receive(receiver); !errors.Is(err, ErrNoPending) {
		t.Fatalf("phantom receive: %v", err)
	}
}

func TestEndToEndOwnershipCopy(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipCopy); err != nil {
		t.Fatal(err)
	}
	got, err := link.Receive(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ReadOnly() {
		t.Fatal("copy should be read-only")
	}
	if err := got.Write(0, []byte("nope")); err == nil {
		t.Fatal("write to read-only copy succeeded")
	}
	// Sender keeps writing.
	if err := buf.Write(0, []byte("still mine")); err != nil {
		t.Fatal(err)
	}
}

func TestDelegationRejectedUnderAttack(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("target")); err != nil {
		t.Fatal(err)
	}
	c.SetInterposer(tamperFunc(func(m WireMessage) []WireMessage {
		if m.Kind == WireClosure && len(m.Payload) > 0 {
			p := append([]byte(nil), m.Payload...)
			p[len(p)-3] ^= 1
			m.Payload = p
		}
		return []WireMessage{m}
	}))
	if err := link.Delegate(buf, OwnershipTransfer); err == nil {
		t.Fatal("tampered delegation succeeded")
	}
	c.SetInterposer(nil)
	// Sender recovered; retry succeeds.
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatalf("retry after attack: %v", err)
	}
	if _, err := link.Receive(receiver); err != nil {
		t.Fatal(err)
	}
}

func TestSpyOnWireSeesNoPlaintext(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("producer", nil)
	receiver := b.Spawn("consumer", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("extremely confidential plaintext content here")
	if err := buf.Write(0, secret); err != nil {
		t.Fatal(err)
	}
	spy := &wireSpy{}
	c.SetInterposer(spy)
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	for _, p := range spy.Captured {
		if bytes.Contains(p, secret[:16]) {
			t.Fatal("plaintext visible on the wire")
		}
	}
	if len(spy.Captured) == 0 {
		t.Fatal("spy saw nothing; test is vacuous")
	}
}

func TestBufferBounds(t *testing.T) {
	c, a, b := twoMachines(t)
	sender := a.Spawn("p", nil)
	receiver := b.Spawn("q", nil)
	link, err := c.Connect(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(buf.Size()-1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(buf.Size(), []byte{1}); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, err := buf.Read(-1, 1); err == nil {
		t.Fatal("negative read accepted")
	}
	if _, err := buf.Read(0, buf.Size()+1); err == nil {
		t.Fatal("oversized read accepted")
	}
}

func TestSameMachineLinkRejected(t *testing.T) {
	c := smallCluster(t)
	a, err := c.AddMachine("solo")
	if err != nil {
		t.Fatal(err)
	}
	e1 := a.Spawn("e1", nil)
	e2 := a.Spawn("e2", nil)
	if _, err := c.Connect(e1, e2); err == nil {
		t.Fatal("same-machine link accepted")
	}
}

func TestForeignEnclaveRejectedOnLink(t *testing.T) {
	c, a, b := twoMachines(t)
	s := a.Spawn("s", nil)
	r := b.Spawn("r", nil)
	link, err := c.Connect(s, r)
	if err != nil {
		t.Fatal(err)
	}
	outsiderMachine, err := c.AddMachine("carol")
	if err != nil {
		t.Fatal(err)
	}
	outsider := outsiderMachine.Spawn("o", nil)
	if _, err := link.NewBuffer(outsider); !errors.Is(err, ErrNotOnLink) {
		t.Fatalf("outsider NewBuffer: %v", err)
	}
	if _, err := link.Receive(outsider); !errors.Is(err, ErrNotOnLink) {
		t.Fatalf("outsider Receive: %v", err)
	}
}

func TestClockAdvancesWithWork(t *testing.T) {
	c, a, b := twoMachines(t)
	s := a.Spawn("s", nil)
	r := b.Spawn("r", nil)
	link, err := c.Connect(s, r)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(s)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Clock().Now()
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	if b.Clock().Now() <= before {
		t.Fatal("receiver clock did not advance with the transfer")
	}
}

func TestGeometryExposed(t *testing.T) {
	c := smallCluster(t)
	if c.Geometry().DataSize() != tree.ForLevels(2).DataSize() {
		t.Fatal("geometry mismatch")
	}
}

// linkedBuffer builds a two-machine cluster with the given options and
// returns its link, sending enclave and one fresh buffer.
func linkedBuffer(t *testing.T, opts ...Option) (*Link, *Enclave, *Buffer) {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	s := a.Spawn("s", nil)
	link, err := c.Connect(s, b.Spawn("r", nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(s)
	if err != nil {
		t.Fatal(err)
	}
	return link, s, buf
}

// TestBufferPathAllocs pins the public bulk line path at the engine's
// floor: Buffer.Write allocates nothing for whole and partial lines, and
// Buffer.Read allocates exactly its result for aligned, unaligned and
// sub-line spans.
func TestBufferPathAllocs(t *testing.T) {
	_, _, buf := linkedBuffer(t, WithTreeLevels(2), WithRegions(4))
	payload := bytes.Repeat([]byte{0x5C}, 8*64)
	for _, tc := range []struct {
		name   string
		off, n int
	}{
		{"full lines", 128, 8 * 64},
		{"partial line", 70, 10},
		{"unaligned span", 100, 300},
	} {
		if allocs := testing.AllocsPerRun(20, func() {
			if err := buf.Write(tc.off, payload[:tc.n]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Write %s: %v allocs, want 0", tc.name, allocs)
		}
	}
	for _, tc := range []struct {
		name   string
		off, n int
	}{
		{"aligned", 128, 8 * 64},
		{"unaligned", 100, 300},
		{"sub-line", 70, 10},
	} {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := buf.Read(tc.off, tc.n); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("Read %s: %v allocs, want 1 (the result)", tc.name, allocs)
		}
	}
}

// TestNewBufferAllocsConstant pins buffer creation at a fixed allocation
// count that does not grow with the protected size: a 2-level and a
// 3-level tree (64 KB and 2 MB buffers) cost the same. Each count is the
// least of several calls, and the collector is paused while counting:
// AllocsPerRun counts the whole process, and a collection cycle or other
// runtime background work occasionally adds an allocation that is not the
// buffer's.
func TestNewBufferAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(levels int) float64 {
		link, s, buf := linkedBuffer(t, WithTreeLevels(levels), WithRegions(4))
		if err := buf.Free(); err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for range 5 {
			// AllocsPerRun makes one warm-up call and one measured call.
			bufs := make([]*Buffer, 0, 2)
			least = min(least, testing.AllocsPerRun(1, func() {
				b, err := link.NewBuffer(s)
				if err != nil {
					t.Fatal(err)
				}
				bufs = append(bufs, b)
			}))
			for _, b := range bufs {
				if err := b.Free(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return least
	}
	small, big := count(2), count(3)
	if small != big {
		t.Fatalf("NewBuffer allocations grow with the tree: %v (2 levels) vs %v (3 levels)", small, big)
	}
	t.Logf("NewBuffer: %v allocations", small)
}
