package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/gf"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/store"
	"mmt/internal/tree"
)

const (
	layerReps   = 5       // repetitions of each millisecond-scale step; the median is kept
	replayOps   = 100_000 // access ops replayed against the engine and tree
	kernelIters = 20_000  // iterations of one kernel batch
)

// replayLayers times the exported functions of each layer below mmt on
// inputs generated from the workload seed: the access op sequence, its
// fill bytes and its payload lines.
func replayLayers(m metrics, seed int64, dir string) error {
	w := newAccess(seed)
	key := crypt.KeyFromBytes(binary.LittleEndian.AppendUint64(nil, uint64(seed)))
	geo := tree.ForLevels(3)
	spare := liveBufs // region used for Enable and Install
	pm := mem.New(mem.Config{
		Size:          (liveBufs + 1) * geo.DataSize(),
		RegionSize:    geo.DataSize(),
		MetaPerRegion: geo.MetaSize(),
	})
	ctl, err := engine.New(pm, geo, nil, sim.Gem5Profile())
	if err != nil {
		return err
	}
	guaddr := func(r int) uint64 { return 0x1000 * uint64(r+1) }

	var enable []float64
	for k := 0; k < layerReps; k++ {
		t := time.Now()
		if err := ctl.Enable(spare, key, guaddr(spare), 0); err != nil {
			return fmt.Errorf("engine enable: %w", err)
		}
		enable = append(enable, ms(time.Since(t)))
		ctl.Invalidate(spare)
	}
	m.set("engine.enable_ms", median(enable), "ms")

	line := make([]byte, lineSize)
	for r := 0; r < liveBufs; r++ {
		if err := ctl.Enable(r, key, guaddr(r), 0); err != nil {
			return err
		}
		for l := 0; l < bufLines; l++ {
			if err := ctl.Write(r, l, w.fill[r][l*lineSize:][:lineSize]); err != nil {
				return err
			}
		}
	}
	var reads, writes []float64
	for _, o := range w.seq[:replayOps] {
		r, l := int(o.buf), int(o.line)
		t := time.Now()
		if !o.write {
			err = ctl.ReadInto(r, l, line)
			reads = append(reads, float64(time.Since(t)))
		} else {
			if o.n != lineSize {
				err = ctl.ReadInto(r, l, line)
			}
			if err == nil {
				copy(line[o.lo:], w.pool[int(o.payload)*lineSize:][:o.n])
				err = ctl.Write(r, l, line)
			}
			writes = append(writes, float64(time.Since(t)))
		}
		if err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
	}
	m.set("engine.read_ns", median(reads), "ns")
	m.set("engine.write_ns", median(writes), "ns")

	var export, install []float64
	var closure *core.Closure
	for k := 0; k < layerReps; k++ {
		t := time.Now()
		treeBytes, data, macs, root, ga, err := ctl.Export(0)
		export = append(export, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("engine export: %w", err)
		}
		t = time.Now()
		err = ctl.Install(spare, key, ga, root, treeBytes, data, macs, engine.ModeReadWrite)
		install = append(install, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("engine install: %w", err)
		}
		ctl.Invalidate(spare)
		closure = &core.Closure{Mode: core.OwnershipTransfer, GUAddrHint: ga, CounterHint: root,
			SealedRoot: make([]byte, 48), TreeNodes: treeBytes, LineMACs: macs, Data: data}
	}
	m.set("engine.export_ms", median(export), "ms")
	m.set("engine.install_ms", median(install), "ms")

	var encode, decode []float64
	for k := 0; k < layerReps; k++ {
		t := time.Now()
		wire := closure.Encode()
		encode = append(encode, ms(time.Since(t)))
		t = time.Now()
		_, err := core.DecodeClosure(wire)
		decode = append(decode, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("closure decode: %w", err)
		}
	}
	m.set("core.closure_encode_ms", median(encode), "ms")
	m.set("core.closure_decode_ms", median(decode), "ms")

	if err := replayTree(m, w, key, geo); err != nil {
		return err
	}
	replayKernels(m, w, key)
	return replayStore(m, w, filepath.Join(dir, "store-replay"))
}

// replayTree times VerifyPath on the replayed reads' lines and Update on
// the writes' lines, in batches; ns/op is the median batch mean.
func replayTree(m metrics, w *access, key crypt.Key, geo tree.Geometry) error {
	eng := crypt.NewEngine(key)
	const ga = 0x2000
	tr, err := tree.New(geo, eng, ga)
	if err != nil {
		return err
	}
	var readLines, writeLines []int
	for _, o := range w.seq {
		if o.write {
			writeLines = append(writeLines, int(o.line))
		} else {
			readLines = append(readLines, int(o.line))
		}
	}
	for _, l := range writeLines[:len(writeLines)/2] { // age the counters first
		tr.Update(eng, ga, l)
	}
	var verr error
	m.set("tree.verify_path_ns", batchNs(len(readLines), func(i int) {
		if err := tr.VerifyPath(eng, ga, readLines[i]); err != nil && verr == nil {
			verr = err
		}
	}), "ns")
	m.set("tree.update_ns", batchNs(len(writeLines), func(i int) {
		tr.Update(eng, ga, writeLines[i])
	}), "ns")
	return verr
}

// replayKernels times the crypt scratch kernels and the GF(2^64) batch
// evaluation on seeded inputs shaped like one 3-level (16/32/64-ary) path.
func replayKernels(m metrics, w *access, key crypt.Key) {
	eng := crypt.NewEngine(key)
	var s crypt.Scratch
	ct := w.pool[:lineSize]
	m.set("crypt.pad_line_ns", batchNs(kernelIters, func(i int) {
		o := w.seq[i%len(w.seq)]
		eng.PadLine(crypt.Tweak{GUAddr: 0x1000, Line: uint32(o.line), Counter: uint64(i)}, &s)
	}), "ns")
	m.set("crypt.line_mac_ns", batchNs(kernelIters, func(i int) {
		o := w.seq[i%len(w.seq)]
		eng.LineMACBuf(crypt.Tweak{GUAddr: 0x1000, Line: uint32(o.line), Counter: uint64(i)}, ct, &s)
	}), "ns")
	words := func(n, at int) []uint64 {
		p := make([]uint64, 1+(n+3)/4)
		for j := range p {
			p[j] = binary.LittleEndian.Uint64(w.pool[(at+j)*8:])
		}
		return p
	}
	jobs := []crypt.NodeMACJob{
		{NodeID: 0, ParentCounter: 1, Arity: 16, Packed: words(16, 0)},
		{NodeID: 1 << 24, ParentCounter: 2, Arity: 32, Packed: words(32, 8)},
		{NodeID: 2 << 24, ParentCounter: 3, Arity: 64, Packed: words(64, 24)},
	}
	out := make([]uint64, len(jobs))
	m.set("crypt.node_mac_batch_ns", batchNs(kernelIters, func(i int) {
		jobs[0].ParentCounter = uint64(i)
		eng.NodeMACBatch(0x1000, jobs, out, &s)
	}), "ns")
	mx := gf.NewMulx(binary.LittleEndian.Uint64(w.pool[512:]) | 1)
	polys := [][]uint64{jobs[0].Packed, jobs[1].Packed, jobs[2].Packed}
	m.set("gf.eval_batch_ns", batchNs(kernelIters, func(i int) {
		polys[0][0] = uint64(i)
		mx.EvalBatch(polys, out)
	}), "ns")
}

// lineRecord is the type a snapshot delta gives a data-line record; the
// store only frames it.
const lineRecord store.RecordType = 5

// replayStore appends one persist op's worth of line-sized records (its
// dirtyPer writes) and commits, on a fresh store under dir.
func replayStore(m metrics, w *access, dir string) error {
	st, err := store.Open(store.Dir{Path: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	var commit []float64
	var hash [32]byte
	for k := 0; k < layerReps; k++ {
		t := time.Now()
		for i := 0; i < dirtyPer; i++ {
			o := w.seq[k*dirtyPer+i]
			rec := binary.LittleEndian.AppendUint32(nil, uint32(o.line))
			rec = append(rec, w.pool[int(o.payload)*lineSize:][:lineSize]...)
			if err := st.Append(store.Record{Type: lineRecord, Payload: rec}); err != nil {
				return err
			}
		}
		hash[0] = byte(k)
		if _, err := st.Commit(hash); err != nil {
			return err
		}
		commit = append(commit, ms(time.Since(t)))
	}
	m.set("store.append_commit_ms", median(commit), "ms")
	return nil
}

// batchNs runs f(0..n-1) in batches of 1024 calls and returns the median
// batch's mean ns per call.
func batchNs(n int, f func(i int)) float64 {
	const batch = 1024
	var means []float64
	for start := 0; start+batch <= n; start += batch {
		t := time.Now()
		for i := start; i < start+batch; i++ {
			f(i)
		}
		means = append(means, float64(time.Since(t))/batch)
	}
	return median(means)
}
