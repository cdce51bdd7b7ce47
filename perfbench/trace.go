package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"mmt"
)

// segmentOps is the fixed op count of the determinism segment: two fresh
// traced clusters run it from one seed and must end with identical
// Metrics (simulated cycles and every counter).
var segmentOps = map[string]int{"delegate": 3, "access": 20_000, "persist": 4}

// traced is the --trace 1 run. It measures an untraced and a traced phase
// of the workload back to back (their throughput ratio is the tracing
// overhead), then a probe of the public calls the workload does not make,
// the lower-layer replays and the determinism segment.
func traced(cfg config, dir, out string) (*result, map[string]any, error) {
	d := time.Duration(cfg.seconds * 0.4 * float64(time.Second))
	res := &result{Correct: true, Metrics: metrics{}}
	report := map[string]any{}
	tally := func(b *bench, ph *phase) {
		res.Attempted += b.ops + ph.events + 1
		res.Failed += b.failed
		if b.mismatch != nil {
			res.Correct = false
			report["mismatch"] = b.mismatch.Error()
		}
	}

	w := newWorkload(cfg.workload, cfg.seed)
	a := newBench(dir)
	pa, err := measure(w, a, false, d)
	if err == nil {
		err = finish(w, a)
	}
	tally(a, pa)
	if err != nil {
		return res, report, fmt.Errorf("untraced phase: %w", err)
	}

	w = newWorkload(cfg.workload, cfg.seed)
	b := newBench(dir)
	b.rec = newRecorder(100_000)
	b.tracing = mmt.NewTraceSink()
	pb, err := measure(w, b, false, d)
	if err == nil {
		err = finish(w, b)
	}
	tally(b, pb)
	if err != nil {
		return res, report, fmt.Errorf("traced phase: %w", err)
	}

	pr, err := probe(cfg.seed, dir)
	res.Attempted++
	if err != nil {
		res.Failed++
		return res, report, fmt.Errorf("probe: %w", err)
	}
	if pr.mismatch != nil {
		res.Correct = false
		report["mismatch"] = pr.mismatch.Error()
	}

	spans := append(append([]span(nil), b.rec.spans...), pr.rec.spans...)
	if err := checkNesting(b.rec.spans); err != nil {
		return res, report, err
	}
	if err := checkNesting(pr.rec.spans); err != nil {
		return res, report, err
	}
	spanFile := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpanFile(spanFile, b.rec.spans, pr.rec.spans); err != nil {
		return res, report, err
	}
	report["span_file"] = spanFile
	report["spans"] = len(spans)
	report["op_self_us_p50"] = opSelf(b.rec.spans)

	m := res.Metrics
	callMetrics(m, b.rec.spans, pr.rec.spans)
	if err := readAllocs(m, cfg.seed, dir); err != nil {
		return res, report, fmt.Errorf("read allocations: %w", err)
	}
	counterMetrics(m, report, b, pb)
	storeGrowth, dirty := b.storeGrowth, b.dirtyBytes
	if dirty == 0 {
		storeGrowth, dirty = pr.storeGrowth, pr.dirtyBytes
	}
	m.set("store.bytes_per_dirty_byte", float64(storeGrowth)/float64(max(dirty, 1)), "ratio")
	ops := float64(a.ops)
	m.set("runtime.gc_cycles_per_op", float64(pa.mem.gcCycles)/ops, "count")
	m.set("runtime.gc_pause_ms_per_op", ms(pa.mem.gcPause)/ops, "ms")
	m.set("trace.overhead_ratio", (float64(b.ops)/pb.elapsed.Seconds())/(ops/pa.elapsed.Seconds()), "ratio")

	if err := replayLayers(m, cfg.seed, dir); err != nil {
		return res, report, fmt.Errorf("layer replay: %w", err)
	}

	cycles, digest, err := determinism(cfg, dir)
	if err != nil {
		res.Correct = false
		return res, report, err
	}
	m.set("sim.cycles_per_op", cycles, "cycles")
	report["segment_ops"] = segmentOps[cfg.workload]
	report["segment_metrics"] = digest
	return res, report, nil
}

// durations returns, per span named name, its duration in ns divided by
// div(span).
func durations(spans []span, name string, div func(span) float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/div(s))
		}
	}
	return out
}

// perOp sums, per op, the durations (ns) of its child spans with the
// given names; ops with none of them are skipped.
func perOp(spans []span, names ...string) []float64 {
	sums := map[uint64]float64{}
	var order []uint64
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				if _, ok := sums[s.Op]; !ok {
					order = append(order, s.Op)
				}
				sums[s.Op] += float64(s.End - s.Start)
			}
		}
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

// callMetrics reports the median public-call times. Each comes from the
// workload's own spans when it made the call, else from the probe's.
func callMetrics(m metrics, work, probe []span) {
	one := func(span) float64 { return 1 }
	perLine := func(s span) float64 { return float64(max(s.Lines, 1)) }
	pick := func(f func([]span) []float64) float64 {
		if v := f(work); len(v) > 0 {
			return median(v)
		}
		return median(f(probe))
	}
	single := func(name string, div func(span) float64) func([]span) []float64 {
		return func(s []span) []float64 { return durations(s, name, div) }
	}
	sum := func(names ...string) func([]span) []float64 {
		return func(s []span) []float64 { return perOp(s, names...) }
	}
	const msPerNs = 1e-6
	m.set("mmt.new_buffer_ms", pick(single("mmt.NewBuffer", one))*msPerNs, "ms")
	m.set("mmt.connect_ms", pick(single("mmt.Connect", one))*msPerNs, "ms")
	m.set("mmt.write_ns_per_line", pick(single("mmt.Write", perLine)), "ns")
	m.set("mmt.read_ns_per_line", pick(single("mmt.Read", perLine)), "ns")
	m.set("mmt.delegate_ms", pick(sum("mmt.Delegate", "mmt.Receive"))*msPerNs, "ms")
	m.set("mmt.free_ms", pick(single("mmt.Free", one))*msPerNs, "ms")
	m.set("mmt.checkpoint_ms", pick(single("mmt.Checkpoint", one))*msPerNs, "ms")
	m.set("mmt.save_ms", pick(single("mmt.Save", one))*msPerNs, "ms")
	m.set("mmt.load_ms", pick(single("mmt.Load", one))*msPerNs, "ms")
	m.set("mmt.open_ms", pick(single("mmt.Open", one))*msPerNs, "ms")
	m.set("mmt.export_import_ms",
		pick(sum("mmt.Export", "mmt.Artifact.WriteTo", "mmt.ReadArtifact", "mmt.Import"))*msPerNs, "ms")
}

// opSelf is the median self time (µs) of the workload's op spans: the
// benchmark's own work between the calls it times.
func opSelf(spans []span) float64 {
	self := selfTimes(spans)
	var v []float64
	for i, s := range spans {
		if s.Parent < 0 && s.Name != "op.setup" {
			v = append(v, float64(self[i])/1e3)
		}
	}
	return median(v)
}

// counterMetrics turns the traced phase's Metrics() deltas into per-op
// counts.
func counterMetrics(m metrics, report map[string]any, b *bench, ph *phase) {
	delta := func(c mmt.TraceCounter) float64 {
		return float64(ph.after.Counter(c) - ph.before.Counter(c))
	}
	ops := float64(b.ops)
	hits, misses := delta(mmt.CtrNodeCacheHits), delta(mmt.CtrNodeCacheMisses)
	m.set("engine.node_cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	m.set("engine.node_cache_lookups_per_op", (hits+misses)/ops, "count")
	m.set("tree.node_verifies_per_op", delta(mmt.CtrTreeNodeVerifies)/ops, "count")
	m.set("tree.rehashes_per_write", delta(mmt.CtrTreeNodeRehashes)/float64(max(b.linesWritten, 1)), "count")
	m.set("core.closure_bytes_per_op", delta(mmt.CtrClosureEncodeBytes)/ops, "B")
	wire := delta(mmt.CtrWireBytesData) + delta(mmt.CtrWireBytesClosure) + delta(mmt.CtrWireBytesControl)
	m.set("netsim.wire_bytes_per_op", wire/ops, "B")
	report["traced_ops"] = b.ops
	report["node_cache_lookups"] = hits + misses
	report["lines_written"] = b.linesWritten
}

// probe runs the public calls a workload may not make, on small clusters
// of its own: three delegate ops, then four persist ops with a Save→Load
// and an Export→Import, ending in Close→Open.
func probe(seed int64, dir string) (*bench, error) {
	b := newBench(dir)
	b.rec = newRecorder(1 << 14)
	for _, run := range []struct {
		w   workload
		ops int
	}{{newDelegate(seed), 3}, {newPersist(seed, 2), 4}} {
		b.beginOp("op.setup")
		err := run.w.setup(b)
		b.endOp()
		if err == nil {
			err = run.w.prepare(b)
		}
		if err == nil {
			err = runOps(run.w, b, run.ops)
		}
		if err == nil {
			err = run.w.finish(b)
		}
		if cerr := run.w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// runOps runs n ops of w, each followed by its scheduled steps.
func runOps(w workload, b *bench, n int) error {
	for i := uint64(0); i < uint64(n); i++ {
		b.beginOp("op." + w.name())
		err := w.op(b, i)
		b.endOp()
		if err == nil {
			_, err = w.after(b, i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readAllocs measures heap allocations per single-line Buffer.Read.
func readAllocs(m metrics, seed int64, dir string) error {
	b := newBench(dir)
	d := newDelegate(seed)
	if err := d.setup(b); err != nil {
		return err
	}
	defer d.close()
	buf, err := d.p.link.NewBuffer(d.p.sender)
	if err != nil {
		return err
	}
	seq := accessSeq(newRand(seed), 4096)
	runtime.GC()
	m0 := readMem()
	for _, o := range seq {
		if _, err := buf.Read(int(o.line)*lineSize, lineSize); err != nil {
			return err
		}
	}
	md := memSince(m0)
	m.set("mmt.read_allocs_per_line", float64(md.mallocs)/float64(len(seq)), "count")
	return nil
}

// determinism runs the fixed segment on two fresh traced clusters from
// one seed and fails unless their Metrics match exactly. It returns the
// simulated cycles per op and a digest of the counters.
func determinism(cfg config, dir string) (float64, map[string]uint64, error) {
	first, cycles, err := segment(cfg, dir)
	if err != nil {
		return 0, nil, err
	}
	second, cycles2, err := segment(cfg, dir)
	if err != nil {
		return 0, nil, err
	}
	if cycles != cycles2 || !reflect.DeepEqual(first, second) {
		return 0, nil, fmt.Errorf("simulator not deterministic: two traced runs of seed %d differ (%v vs %v cycles/op)\nfirst:\n%v\nsecond:\n%v",
			cfg.seed, cycles, cycles2, first, second)
	}
	digest := map[string]uint64{"total_cycles": uint64(first.TotalCycles())}
	for c := mmt.TraceCounter(0); c <= mmt.CtrWireBytesControl; c++ { // the last counter
		digest[c.String()] = first.Counter(c)
	}
	return cycles, digest, nil
}

func segment(cfg config, dir string) (mmt.Metrics, float64, error) {
	w := newWorkload(cfg.workload, cfg.seed)
	if p, ok := w.(*persist); ok {
		p.every = 2
	}
	b := newBench(dir)
	b.tracing = mmt.NewTraceSink()
	defer w.close()
	if err := w.setup(b); err != nil {
		return mmt.Metrics{}, 0, err
	}
	if err := w.prepare(b); err != nil {
		return mmt.Metrics{}, 0, err
	}
	before := b.tracing.Snapshot()
	n := segmentOps[cfg.workload]
	if err := runOps(w, b, n); err != nil {
		return mmt.Metrics{}, 0, err
	}
	after := b.tracing.Snapshot()
	return after, float64(after.TotalCycles()-before.TotalCycles()) / float64(n), nil
}

// writeSpanFile writes the workload's spans, then the probe's.
func writeSpanFile(path string, work, probe []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, "workload", work, selfTimes(work)); err != nil {
		f.Close()
		return err
	}
	if err := writeSpans(f, "probe", probe, selfTimes(probe)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
