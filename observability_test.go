package mmt

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// quickstartTraced runs the package-doc tour (two machines, one 64K
// buffer, one ownership transfer) on a traced cluster and returns the
// sink and cluster.
func quickstartTraced(t *testing.T) (*TraceSink, *Cluster) {
	t.Helper()
	sink := NewTraceSink()
	c, err := New(WithTreeLevels(2), WithRegions(6), WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	producer := alice.Spawn("producer", []byte("app"))
	consumer := bob.Spawn("consumer", []byte("app"))
	link, err := c.Connect(producer, consumer)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(producer)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(0, []byte("secret bytes")); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	got, err := link.Receive(consumer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Read(0, 12); err != nil {
		t.Fatal(err)
	}
	return sink, c
}

// TestChromeTraceGoldenQuickstart pins the exporter's output for the
// quickstart run against a committed golden file (regenerate with
// `go test -run Golden -update .`). No normalization: since attestation
// signatures moved to the fixed-length r||s encoding, every wire message
// in the handshake — and therefore every counter in the trace — is
// length-stable across runs.
func TestChromeTraceGoldenQuickstart(t *testing.T) {
	sink, _ := quickstartTraced(t)
	var out bytes.Buffer
	if err := sink.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "quickstart_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chrome trace deviates from golden file (run with -update if intended)\ngot:\n%s", got)
	}
}

// TestChromeTraceDeterminism runs the quickstart twice on fresh clusters:
// the exports must be byte-identical with no normalization — the trace is
// a pure function of the simulated run, and fixed-length signatures keep
// even the handshake wire counters stable.
func TestChromeTraceDeterminism(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		sink, _ := quickstartTraced(t)
		var a, b bytes.Buffer
		if err := sink.WriteChromeTrace(&a); err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("re-exporting the same sink changed the output")
		}
		runs[i] = a.Bytes()
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two identical simulated runs produced different traces")
	}
}

// TestCausalGoldenQuickstart pins the causal span-tree export (what
// `quickstart -causal` writes) against a committed golden file
// (regenerate with `go test -run Golden -update .`). The quickstart has
// exactly two causal roots — the connect handshake and the delegation —
// and both span trees cross machines.
func TestCausalGoldenQuickstart(t *testing.T) {
	sink, _ := quickstartTraced(t)
	var out bytes.Buffer
	if err := sink.WriteCausalJSON(&out); err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "quickstart_causal.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("causal export deviates from golden file (run with -update if intended)\ngot:\n%s", got)
	}
}

// TestClusterTraces checks the public causal-trace snapshot: the
// quickstart yields one connect tree rooted at alice and one migration
// tree rooted at alice, every child span nests inside its root's
// interval, and both trees reach bob.
func TestClusterTraces(t *testing.T) {
	_, c := quickstartTraced(t)
	traces := c.Traces()
	if len(traces) != 2 {
		t.Fatalf("want 2 causal traces (connect + migration), got %d", len(traces))
	}
	for _, tr := range traces {
		if tr.ID.Proc != "alice" {
			t.Errorf("trace %s not rooted at the initiator", tr.ID)
		}
		if len(tr.Spans) == 0 || tr.Spans[0].Parent != 0 {
			t.Fatalf("trace %s: first span is not the root: %+v", tr.ID, tr.Spans)
		}
		root := tr.Spans[0]
		crossed := false
		for _, sp := range tr.Spans[1:] {
			if sp.Parent == 0 {
				t.Errorf("trace %s: second root span %d", tr.ID, sp.Span)
			}
			if sp.Begin < root.Begin || sp.End > root.End {
				t.Errorf("trace %s: span %d [%v,%v] escapes root [%v,%v]",
					tr.ID, sp.Span, sp.Begin, sp.End, root.Begin, root.End)
			}
			if sp.Proc == "bob" {
				crossed = true
			}
		}
		if !crossed {
			t.Errorf("trace %s never reached bob", tr.ID)
		}
	}
}

// TestClusterMetrics checks the public metrics snapshot after the tour.
func TestClusterMetrics(t *testing.T) {
	_, c := quickstartTraced(t)
	m := c.Metrics()
	if len(m.Procs) != 2 || m.Procs[0].Proc != "alice" || m.Procs[1].Proc != "bob" {
		t.Fatalf("want [alice bob], got %+v", m.Procs)
	}
	if got := m.Counter(CtrClosuresSent); got != 1 {
		t.Fatalf("closures sent = %d, want 1", got)
	}
	if got := m.Counter(CtrClosuresAccepted); got != 1 {
		t.Fatalf("closures accepted = %d, want 1", got)
	}
	if m.Counter(CtrWireBytesClosure) == 0 || m.Counter(CtrWireMsgsClosure) != 1 {
		t.Fatal("closure wire traffic not recorded")
	}
	if m.PhaseCycles(PhaseDelegation) == 0 || m.PhaseCycles(PhaseDMA) == 0 {
		t.Fatal("delegation phases not recorded")
	}
	if m.TotalCycles() <= 0 {
		t.Fatal("no cycles recorded")
	}
	if !strings.Contains(m.String(), "== alice ==") {
		t.Fatalf("summary misses alice:\n%s", m.String())
	}
}

// TestUntracedClusterMetricsEmpty: without WithTracing, Metrics is empty
// and the sink accessor reports nil.
func TestUntracedClusterMetricsEmpty(t *testing.T) {
	c := smallCluster(t)
	if _, err := c.AddMachine("solo"); err != nil {
		t.Fatal(err)
	}
	if c.TraceSink() != nil {
		t.Fatal("untraced cluster has a sink")
	}
	if m := c.Metrics(); len(m.Procs) != 0 || m.TotalCycles() != 0 {
		t.Fatalf("untraced metrics not empty: %+v", m)
	}
}

// TestBufferStats checks the buffer snapshot accessor across a transfer.
func TestBufferStats(t *testing.T) {
	c := smallCluster(t)
	alice, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	link, err := c.Connect(alice.Spawn("p", nil), bob.Spawn("q", nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := link.NewBuffer(link.Sender())
	if err != nil {
		t.Fatal(err)
	}
	st, err := buf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Machine != "alice" || st.Size != buf.Size() || st.Mode != "read-write" || st.ReadOnly {
		t.Fatalf("bad stats: %+v", st)
	}
	if !strings.Contains(st.String(), "buffer{alice") {
		t.Fatalf("bad String: %s", st.String())
	}
	before := st.RootCounter
	if err := buf.Write(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := link.Delegate(buf, OwnershipTransfer); err != nil {
		t.Fatal(err)
	}
	got, err := link.Receive(link.Receiver())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := got.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Machine != "bob" || st2.RootCounter <= before {
		t.Fatalf("post-transfer stats wrong: %+v (sender counter was %d)", st2, before)
	}
}

// TestMidRunSnapshotConsistency drives a stream of delegations while a
// concurrent observer goroutine polls Metrics() and Events() (the /debug
// server's access pattern). Every snapshot must be internally consistent
// — histogram bucket sums match counts, ledger sequence numbers strictly
// increase, cycle totals never go backwards — and must be a detached
// copy: mutating a returned snapshot never leaks into later ones. Run
// with -race this also proves the sink's locking discipline.
// BufferStats snapshots are taken on the driving goroutine (buffers are
// single-owner objects; only the trace accessors are concurrency-safe).
func TestMidRunSnapshotConsistency(t *testing.T) {
	sink := NewTraceSink()
	c, err := New(WithTreeLevels(2), WithRegions(8), WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	link, err := c.Connect(alice.Spawn("p", nil), bob.Spawn("q", nil))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	obsErr := make(chan error, 1)
	go func() {
		var lastTotal float64
		for {
			m := c.Metrics()
			for i := range m.Procs {
				p := &m.Procs[i]
				for op := range p.Ops {
					h := &p.Ops[op]
					var n uint64
					for _, b := range h.Buckets {
						n += b
					}
					if n != h.Count {
						obsErr <- fmt.Errorf("proc %s op %d: bucket sum %d != count %d", p.Proc, op, n, h.Count)
						return
					}
					if h.Count > 0 && h.Min > h.Max {
						obsErr <- fmt.Errorf("proc %s op %d: min %v > max %v", p.Proc, op, h.Min, h.Max)
						return
					}
				}
			}
			if tot := float64(m.TotalCycles()); tot < lastTotal {
				obsErr <- fmt.Errorf("cycle total went backwards: %v -> %v", lastTotal, tot)
				return
			} else {
				lastTotal = tot
			}
			evs := c.Events()
			for i := range evs {
				if evs[i].Detail == "poisoned by observer" {
					obsErr <- fmt.Errorf("mutated snapshot leaked into the live ledger")
					return
				}
				if i > 0 && evs[i].Seq <= evs[i-1].Seq {
					obsErr <- fmt.Errorf("ledger seq not increasing: %d after %d", evs[i].Seq, evs[i-1].Seq)
					return
				}
			}
			// Poison the copies; later snapshots must not see it.
			for i := range evs {
				evs[i].Detail = "poisoned by observer"
			}
			for i := range m.Procs {
				m.Procs[i].Ops[0].Count += 1 << 40
				m.Procs[i].Cycles[0] += 1e12
			}
			select {
			case <-stop:
				obsErr <- nil
				return
			default:
			}
		}
	}()

	for round := 0; round < 6; round++ {
		buf, err := link.NewBuffer(link.Sender())
		if err != nil {
			t.Fatal(err)
		}
		if err := buf.Write(0, []byte("round")); err != nil {
			t.Fatal(err)
		}
		st, err := buf.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Machine != "alice" || st.Mode != "read-write" {
			t.Fatalf("round %d: bad pre-transfer stats: %+v", round, st)
		}
		if err := link.Delegate(buf, OwnershipTransfer); err != nil {
			t.Fatal(err)
		}
		got, err := link.Receive(link.Receiver())
		if err != nil {
			t.Fatal(err)
		}
		st2, err := got.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st2.Machine != "bob" {
			t.Fatalf("round %d: bad post-transfer stats: %+v", round, st2)
		}
		if err := got.Free(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-obsErr; err != nil {
		t.Fatal(err)
	}
	// The poisoned copies never reached the sink: the final snapshot's
	// totals are sane (a leaked 1e12-cycle bump would dwarf the run).
	if tot := float64(c.Metrics().TotalCycles()); tot > 1e11 {
		t.Fatalf("cycle total %v suggests a poisoned snapshot leaked back", tot)
	}
}

// TestOptionsValidateEagerly: every With* option rejects bad input at
// construction time with a descriptive error, never at first use.
func TestOptionsValidateEagerly(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"nil profile", WithProfile(nil)},
		{"levels too low", WithTreeLevels(1)},
		{"levels too high", WithTreeLevels(5)},
		{"zero regions", WithRegions(0)},
		{"negative latency", WithNetLatency(-1)},
		{"nil sink", WithTracing(nil)},
		{"empty debug addr", WithDebugServer("")},
		{"empty store path", WithStore("")},
		{"nil option", nil},
	}
	for _, tc := range cases {
		if _, err := New(tc.opt); err == nil {
			t.Errorf("%s: New accepted invalid option", tc.name)
		}
	}
	// Defaults still resolve when no options are given.
	c, err := New(WithTreeLevels(2), WithRegions(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.set.regions != 6 || c.set.profile.Name != "gem5" {
		t.Fatalf("options resolved wrong: %+v", c.set)
	}
}

// TestWithSamplingWindowShift: the sampler window is an exponent, so
// the only invalid value is one past MaxWindowShift, which New rejects;
// an accepted shift exports 2^shift-cycle windows.
func TestWithSamplingWindowShift(t *testing.T) {
	bad := WithSampling(SamplingConfig{WindowShift: trace.MaxWindowShift + 1})
	if _, err := New(WithTracing(NewTraceSink()), bad); err == nil || !strings.Contains(err.Error(), "window shift 64") {
		t.Fatalf("out-of-range window shift: got %v", err)
	}
	sink := NewTraceSink()
	c, err := New(WithTreeLevels(2), WithRegions(2), WithTracing(sink), WithSampling(SamplingConfig{WindowShift: 12}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMachine("alice"); err != nil {
		t.Fatal(err)
	}
	if v, ok := sink.SeriesSnapshot(); !ok || v.WindowCycles != 1<<12 {
		t.Fatalf("series window = %d cycles (sampling on: %v), want 4096", v.WindowCycles, ok)
	}
}

// TestErrStaleCounter: acquiring a buffer, letting a later delegation
// move the connection's freshness floor past it, then delegating it must
// fail fast with ErrStaleCounter on the sender side — and the buffer
// must stay usable.
func TestErrStaleCounter(t *testing.T) {
	c := smallCluster(t)
	alice, err := c.AddMachine("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddMachine("bob")
	if err != nil {
		t.Fatal(err)
	}
	link, err := c.Connect(alice.Spawn("p", nil), bob.Spawn("q", nil))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := link.NewBuffer(link.Sender())
	if err != nil {
		t.Fatal(err)
	}
	// Move the floor: delegate fresher buffers until one outruns stale's
	// next counter value.
	moved := false
	for i := 0; i < 4 && !moved; i++ {
		fresh, err := link.NewBuffer(link.Sender())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Write(0, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if err := link.Delegate(fresh, OwnershipTransfer); err != nil {
			t.Fatal(err)
		}
		if _, err := link.Receive(link.Receiver()); err != nil {
			t.Fatal(err)
		}
		err = link.Delegate(stale, OwnershipTransfer)
		switch {
		case err == nil:
			t.Fatal("stale delegation unexpectedly accepted before floor moved")
		case errors.Is(err, ErrStaleCounter):
			moved = true
		default:
			t.Fatalf("unexpected delegation error: %v", err)
		}
	}
	if !moved {
		t.Fatal("never hit ErrStaleCounter")
	}
	// The sender-side check fires before any state mutation: the buffer
	// is still readable and writable.
	if err := stale.Write(0, []byte("still mine")); err != nil {
		t.Fatalf("stale buffer unusable after rejected delegation: %v", err)
	}
}
