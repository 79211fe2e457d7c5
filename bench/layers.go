package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	pathoram "repro"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/encrypt"
	"repro/internal/hierarchy"
	"repro/internal/integrity"
	"repro/internal/membus"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// Direct layer measurements ("T" metrics): each times calls into one
// layer's exported functions from here, every call inside its own span, and
// reports the median call. A traced run measures the layers its workload's
// stack crosses, so every number sits beside the workload it should explain.

// Geometry of one flat-enc shard (32768 blocks, 15 levels) and of a 1-shard
// tree (16 levels).
func shardBlocks() uint64 { return benchBlocks / 2 }
func shardLeafLevel() int { return leafLevel(benchBlocks / 2) }
func treeLeafLevel() int  { return leafLevel(benchBlocks) }

// layerRun carries what the direct measurements share.
type layerRun struct {
	tr    *tracer
	seed  int64
	calls int // calls per direct measurement
	ops   int // ops per ladder rung, also capped by rungBudget
	out   map[string]float64
}

// rungBudget caps one ladder rung's timed loop, so the slow simulator rungs
// stop short of the full op count (the span file has the count).
const rungBudget = time.Second

var layerFuncs = map[string]func(*layerRun, *instance) error{
	"pathoram":  (*layerRun).ladder,
	"service":   (*layerRun).service,
	"shard":     (*layerRun).shard,
	"hierarchy": (*layerRun).hierarchy,
	"core":      (*layerRun).core,
	"encrypt":   (*layerRun).encrypt,
	"integrity": (*layerRun).integrity,
	"storage":   (*layerRun).storage,
	"membus":    (*layerRun).membus,
	"dram":      (*layerRun).dram,
}

// series starts a direct measurement whose median lands under metric.
func (r *layerRun) series(metric string) *series { return r.tr.series(metric, r.calls) }

// done stores the series' median under its metric, scaled by scale.
func (r *layerRun) done(s *series, scale float64) { r.out[s.name] = s.median() * scale }

// ---- pathoram: the layer ladder ----

func bareRung(cfg pathoram.Config) func(string) pathoram.Config {
	return func(dir string) pathoram.Config {
		cfg := cfg
		cfg.Blocks = benchBlocks
		if cfg.Backend == pathoram.BackendFile {
			cfg.Dir = dir
		}
		return cfg
	}
}

func withSpec(base func(int64, string) pathoram.Spec, edit func(*pathoram.Spec)) func(int64, string) pathoram.Spec {
	return func(seed int64, dir string) pathoram.Spec {
		s := base(seed, dir)
		edit(&s)
		return s
	}
}

// rung makes a ladder stack: one shard, one client, single ops.
func rung(w workload) *workload {
	w.shards, w.clients, w.batch = 1, 1, 1
	return &w
}

// rungs are the ladder's stacks: each is the one before it in its chain
// plus one layer, so a layer's marginal cost is a subtraction. All run the
// same seeded uniform single-op stream from one client over 65536 blocks.
// Counter encryption is the library default, so only payload turns it off.
var rungs = map[string]*workload{
	"meta":    rung(workload{name: "ladder.meta_ns", bare: bareRung(pathoram.Config{}), metaOnly: true}),
	"payload": rung(workload{name: "ladder.payload_ns", bare: bareRung(pathoram.Config{BlockSize: benchBlockSize, Encryption: pathoram.EncryptNone})}),
	"counter": rung(workload{name: "ladder.counter_ns", bare: bareRung(pathoram.Config{BlockSize: benchBlockSize})}),
	"integrity": rung(workload{name: "ladder.integrity_ns", bare: bareRung(pathoram.Config{
		BlockSize: benchBlockSize, Integrity: true})}),
	"file": rung(workload{name: "ladder.file_ns", file: true, bare: bareRung(pathoram.Config{
		BlockSize: benchBlockSize, Backend: pathoram.BackendFile})}),
	"wal": rung(workload{name: "ladder.wal_ns", file: true, bare: bareRung(pathoram.Config{
		BlockSize: benchBlockSize, Backend: pathoram.BackendFile, WAL: true, WALDepth: 256})}),
	"wal_async": rung(workload{name: "ladder.wal_async_ns", file: true, bare: bareRung(pathoram.Config{
		BlockSize: benchBlockSize, Backend: pathoram.BackendFile, WAL: true, WALDepth: 256, AsyncEviction: true})}),
	"sched": rung(workload{name: "ladder.sched_ns", spec: flatEncSpec}),
	"recursive": rung(workload{name: "ladder.recursive_ns", spec: withSpec(dramRecSpec, func(s *pathoram.Spec) {
		s.Backend, s.DRAMSched, s.DRAMChannels, s.Overlap = pathoram.BackendMem, pathoram.MemSchedInOrder, 0, 0
	})}),
	"dram_inorder": rung(workload{name: "ladder.dram_inorder_ns", spec: withSpec(dramRecSpec, func(s *pathoram.Spec) {
		s.DRAMSched = pathoram.MemSchedInOrder
	})}),
	"dram_frfcfs": rung(workload{name: "ladder.dram_frfcfs_ns", spec: dramRecSpec}),
	"http":        rung(workload{name: "ladder.http_ns", spec: flatEncSpec, tenants: 1}),
}

// ladderRungs names the rungs a workload's traced run climbs: the stack
// that ends at the workload, and the rung its subtraction starts from.
// flat-enc also climbs the storage branch off its counter rung, because the
// workload that ends there is not one BENCHMARK.json declares.
var ladderRungs = map[string][]string{
	"flat-enc":         {"meta", "payload", "counter", "integrity", "sched", "file", "wal", "wal_async"},
	"wal-async":        {"counter", "file", "wal", "wal_async"},
	"dram-rec-zipf":    {"recursive", "dram_inorder", "dram_frfcfs"},
	"dram-rec-uniform": {"recursive", "dram_inorder", "dram_frfcfs"},
	"http-closed":      {"sched", "http"},
}

func (r *layerRun) ladder(of *instance) error {
	for _, name := range ladderRungs[of.w.name] {
		if err := r.climb(rungs[name]); err != nil {
			return fmt.Errorf("%s: %w", rungs[name].name, err)
		}
	}
	return nil
}

// climb builds and prefills one rung, then times each submit of the
// stream; making the op and checking the reply stay outside the span.
func (r *layerRun) climb(w *workload) error {
	inst, _, err := buildInstance(w, r.seed)
	if err != nil {
		return err
	}
	c := newClients(inst, r.seed)[0]
	s := r.tr.series(w.name, r.ops)
	for begin := time.Now(); len(s.d) < r.ops && time.Since(begin) < rungBudget; {
		s.add(c.step(nil, nil))
	}
	r.done(s, 1)
	err = c.firstErr
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return err
}

// ---- service ----

// service reads the handler and transport self times off the traced
// window's spans, then calls the handler directly, with no socket.
func (r *layerRun) service(inst *instance) error {
	spans := r.tr.all()
	self := selfTimes(spans)
	selfOf := func(s span) int64 { return self[s.id] }
	r.out["service.handler_ns"], _ = medianBy(spans, "service.handler", selfOf)
	r.out["service.transport_ns"], _ = medianBy(spans, "loadgen.op", selfOf)

	rng := rand.New(rand.NewSource(r.seed))
	body := new(bytes.Buffer)
	block := make([]byte, benchBlockSize)
	// Writes rewrite the version the shadow already holds, so a later
	// window's checks still pass; reads change nothing.
	appendOp := func(op string, write bool) {
		a := rng.Uint64() % benchBlocks
		body.WriteString(`{`)
		if op != "" {
			body.WriteString(`"op":"` + op + `",`)
		}
		body.WriteString(`"addr":` + strconv.FormatUint(a, 10))
		if write {
			fillBlock(block, a, inst.shadows[0][a].Load())
			body.WriteString(`,"data":"` + base64.StdEncoding.EncodeToString(block) + `"`)
		}
		body.WriteString("}\n")
	}
	call := func(s *series, url string) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, url, body)
		s.start()
		inst.handler.ServeHTTP(rec, req)
		s.stop()
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			return fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return nil
	}
	read, write := r.series("service.direct_read_ns"), r.series("service.direct_write_ns")
	for i := 0; i < r.calls; i++ {
		body.Reset()
		appendOp("", false)
		if err := call(read, "/v1/t/t0/read"); err != nil {
			return err
		}
		body.Reset()
		appendOp("", true)
		if err := call(write, "/v1/t/t0/write"); err != nil {
			return err
		}
	}
	r.done(read, 1)
	r.done(write, 1)
	const run = 256
	batch := r.series("service.batch256_ns_per_op")
	for i := 0; i < max(r.calls/run, 8); i++ {
		body.Reset()
		for j := 0; j < run; j++ {
			appendOp([]string{"read", "write"}[i&1], i&1 == 1)
		}
		if err := call(batch, "/v1/t/t0/batch"); err != nil {
			return err
		}
	}
	r.done(batch, 1.0/run)
	return nil
}

// ---- shard ----

// nopEngine answers every request at once: what is left is the hand-off.
type nopEngine struct{}

func (nopEngine) Read(uint64) ([]byte, error)                      { return nil, nil }
func (nopEngine) ReadInto(uint64, []byte) (bool, error)            { return true, nil }
func (nopEngine) Write(uint64, []byte) error                       { return nil }
func (nopEngine) Update(uint64, func([]byte)) error                { return nil }
func (nopEngine) Load(uint64) ([]byte, bool, []core.Slot, error)   { return nil, false, nil, nil }
func (nopEngine) Store(uint64, []byte) error                       { return nil }
func (nopEngine) PaddingAccess() error                             { return nil }
func (nopEngine) StepBackground(bool) (core.BackgroundWork, error) { return core.BgNone, nil }
func (nopEngine) Flush() error                                     { return nil }

func (r *layerRun) shard(*instance) error {
	pool, err := shard.NewPool([]shard.Engine{nopEngine{}, nopEngine{}}, shard.Config{})
	if err != nil {
		return err
	}
	defer pool.Close() //nolint:errcheck // no-op engines have nothing to flush
	dst := make([]byte, benchBlockSize)
	req := &shard.Request{Op: shard.OpRead, Dst: dst}
	reqs, shards := make([]*shard.Request, 16), make([]int, 16)
	for i := range reqs {
		reqs[i], shards[i] = &shard.Request{Op: shard.OpRead, Dst: dst}, i&1
	}
	do, batch := r.series("shard.do_ns"), r.series("shard.batch16_ns")
	for i := 0; i < r.calls; i++ {
		do.start()
		err := pool.Do(i&1, req)
		do.stop()
		if err != nil {
			return err
		}
		batch.start()
		err = pool.DoBatch(shards, reqs)
		batch.stop()
		if err != nil {
			return err
		}
	}
	r.done(do, 1)
	r.done(batch, 1)
	return nil
}

// ---- hierarchy ----

// hierarchy times Access on dram-rec's chain built straight from
// internal/hierarchy on plain in-memory stores: no scheduler, no timing
// model.
func (r *layerRun) hierarchy(*instance) error {
	rng := rand.New(rand.NewSource(r.seed))
	h, err := hierarchy.New(hierarchy.Config{
		Blocks: benchBlocks, DataBlockBytes: benchBlockSize,
		DataZ: benchZ, PosZ: benchZ, PosBlockBytes: 32, OnChipPosMapMax: 2048,
		StashCapacity: 200, BackgroundEviction: true, PLBBytes: 8192,
		NewStore: hierarchy.MemStoreFactory, Leaves: core.NewMathLeafSource(rng),
	})
	if err != nil {
		return err
	}
	block := make([]byte, benchBlockSize)
	for a := uint64(0); a < benchBlocks; a++ {
		if _, err := h.Access(a, core.OpWrite, block); err != nil {
			return err
		}
	}
	s := r.series("hierarchy.access_ns")
	for i := 0; i < r.calls; i++ {
		a := rng.Uint64() % benchBlocks
		s.start()
		_, err := h.ReadInto(a, block)
		s.stop()
		if err != nil {
			return err
		}
	}
	r.done(s, 1)
	return nil
}

// ---- core ----

// core times the protocol alone on a plaintext MemStore of one flat-enc
// shard's geometry: synchronous, and staged with the StepBackground its
// write-back is owed.
func (r *layerRun) core(*instance) error {
	for _, v := range []struct {
		metric string
		staged bool
	}{{"core.access_ns", false}, {"core.access_async_ns", true}} {
		rng := rand.New(rand.NewSource(r.seed))
		src := core.NewMathLeafSource(rng)
		p := core.Params{
			LeafLevel: shardLeafLevel(), Z: benchZ, BlockBytes: benchBlockSize, Blocks: shardBlocks(),
			StashCapacity: 200, BackgroundEviction: true, DeferWriteBack: v.staged,
		}
		store, err := core.NewMemStore(p.LeafLevel, p.Z, p.BlockBytes)
		if err != nil {
			return err
		}
		pos, err := core.NewOnChipPositionMap(p.Groups(), treemath.New(p.LeafLevel).NumLeaves(), src)
		if err != nil {
			return err
		}
		o, err := core.New(p, store, pos, src)
		if err != nil {
			return err
		}
		block := make([]byte, benchBlockSize)
		for a := uint64(0); a < shardBlocks(); a++ {
			if _, err := o.Access(a, core.OpWrite, block); err != nil {
				return err
			}
		}
		if err := o.Flush(); err != nil {
			return err
		}
		s := r.series(v.metric)
		for i := 0; i < r.calls; i++ {
			a := rng.Uint64() % shardBlocks()
			s.start()
			if i&1 == 0 {
				_, err = o.ReadInto(a, block)
			} else {
				_, err = o.Access(a, core.OpWrite, block)
			}
			if err == nil && v.staged {
				_, err = o.StepBackground(true)
			}
			s.stop()
			if err != nil {
				return err
			}
		}
		r.done(s, 1)
	}
	return nil
}

// ---- encrypt ----

// pathBuffers allocates one buffer of n bytes per level of a path.
func pathBuffers(levels, n int) [][]byte {
	out := make([][]byte, levels)
	for d := range out {
		out[d] = make([]byte, n)
	}
	return out
}

// fullPath returns one full bucket of Z real blocks per level, the most a
// write-back can carry.
func fullPath(levels int) [][]core.Slot {
	out := make([][]core.Slot, levels)
	for d := range out {
		for i := 0; i < benchZ; i++ {
			out[d] = append(out[d], core.Slot{Addr: uint64(d*benchZ + i), Data: make([]byte, benchBlockSize)})
		}
	}
	return out
}

func shardScheme() (treemath.Tree, *encrypt.CounterScheme, error) {
	tree := treemath.New(shardLeafLevel())
	scheme, err := encrypt.NewCounterScheme(make([]byte, encrypt.KeySize), tree.NumBuckets())
	return tree, scheme, err
}

func (r *layerRun) encrypt(*instance) error {
	tree, scheme, err := shardScheme()
	if err != nil {
		return err
	}
	levels := tree.Levels()
	plain := pathBuffers(levels, encrypt.PlainBucketBytes(benchZ, benchBlockSize))
	ct := pathBuffers(levels, encrypt.CipherBucketBytes(scheme, benchZ, benchBlockSize))
	rng := rand.New(rand.NewSource(r.seed))
	var ids []uint64
	seal, open := r.series("encrypt.seal_path_ns"), r.series("encrypt.open_path_ns")
	for i := 0; i < r.calls; i++ {
		ids = tree.AppendPath(rng.Uint64()%tree.NumLeaves(), ids[:0])
		seal.start()
		err := scheme.SealPath(ids, plain, benchZ, ct)
		seal.stop()
		if err != nil {
			return err
		}
		open.start()
		err = scheme.OpenPath(ids, ct, benchZ, plain)
		open.stop()
		if err != nil {
			return err
		}
	}
	r.done(seal, 1)
	r.done(open, 1)

	store, err := encrypt.NewStore(encrypt.StoreConfig{LeafLevel: shardLeafLevel(), Z: benchZ, BlockBytes: benchBlockSize, Scheme: scheme})
	if err != nil {
		return err
	}
	r.out["encrypt.bytes_per_path"] = float64(levels * encrypt.PaddedBucketBytes(scheme, benchZ, benchBlockSize))
	// The access pattern of the protocol: read a path, write it back full.
	full := fullPath(levels)
	var dst [][]core.Slot
	read, write := r.series("encrypt.store_read_path_ns"), r.series("encrypt.store_write_path_ns")
	for i := 0; i < r.calls; i++ {
		leaf := rng.Uint64() % tree.NumLeaves()
		read.start()
		dst, err = store.ReadPath(leaf, nil, dst)
		read.stop()
		if err != nil {
			return err
		}
		write.start()
		err = store.WritePath(leaf, full)
		write.stop()
		if err != nil {
			return err
		}
	}
	r.done(read, 1)
	r.done(write, 1)
	return nil
}

// ---- integrity ----

// integrity follows one access: verify the path read, then re-authenticate
// what was written back to it, over a memory of ciphertext-sized buckets.
func (r *layerRun) integrity(*instance) error {
	tree, scheme, err := shardScheme()
	if err != nil {
		return err
	}
	n := encrypt.CipherBucketBytes(scheme, benchZ, benchBlockSize)
	auth := integrity.New(tree, n)
	memory := make([]byte, int(tree.NumBuckets())*n)
	cts := make([][]byte, tree.Levels())
	rng := rand.New(rand.NewSource(r.seed))
	verify, update := r.series("integrity.verify_path_ns"), r.series("integrity.update_path_ns")
	for i := 0; i < r.calls; i++ {
		leaf := rng.Uint64() % tree.NumLeaves()
		for d := range cts {
			flat := int(tree.PathBucket(leaf, d))
			cts[d] = memory[flat*n : (flat+1)*n]
		}
		reach := auth.PathReachability(leaf)
		verify.start()
		err := auth.VerifyPath(leaf, cts)
		verify.stop()
		if err != nil {
			return err
		}
		for d := range cts {
			cts[d][0]++
		}
		update.start()
		err = auth.UpdatePath(leaf, cts, reach)
		update.stop()
		if err != nil {
			return err
		}
	}
	r.done(verify, 1)
	r.done(update, 1)
	return nil
}

// ---- storage ----

// storage writes and reads one path's records (the padded ciphertext
// buckets the encrypting store hands down) on each Storage, then times the
// WAL checkpoint that WALDepth 256 triggers: Sync after 256 logged frames.
func (r *layerRun) storage(*instance) error {
	tree := treemath.New(shardLeafLevel())
	const stride, depth = 256, 256
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mem, err := storage.NewMem(tree.NumBuckets(), stride)
	if err != nil {
		return err
	}
	file, err := storage.OpenFile(filepath.Join(dir, "file.tree"), tree.NumBuckets(), stride)
	if err != nil {
		return err
	}
	defer file.Close()
	inner, err := storage.OpenFile(filepath.Join(dir, "wal.tree"), tree.NumBuckets(), stride)
	if err != nil {
		return err
	}
	wal, err := storage.OpenWAL(inner, filepath.Join(dir, "wal.wal"), storage.WALConfig{})
	if err != nil {
		inner.Close()
		return err
	}
	defer wal.Close()

	recs := pathBuffers(tree.Levels(), stride)
	dst := make([][]byte, tree.Levels())
	rng := rand.New(rand.NewSource(r.seed))
	var flats []uint64
	for _, s := range []struct {
		name string
		st   storage.Storage
	}{{"mem", mem}, {"file", file}, {"wal", wal}} {
		write := r.series("storage." + s.name + "_write_path_ns")
		var read *series // reading the in-memory arena is a slice expression: not measured
		if s.name != "mem" {
			read = r.series("storage." + s.name + "_read_path_ns")
		}
		for i := 0; i < r.calls; i++ {
			flats = tree.AppendPath(rng.Uint64()%tree.NumLeaves(), flats[:0])
			write.start()
			err := s.st.WriteBuckets(flats, recs)
			write.stop()
			if err != nil {
				return err
			}
			if read != nil {
				// Just written, so the WAL serves this read from its overlay.
				read.start()
				err = s.st.ReadBuckets(flats, dst)
				read.stop()
				if err != nil {
					return err
				}
			}
			if i%depth == depth-1 {
				if err := s.st.Sync(); err != nil {
					return err
				}
			}
		}
		r.done(write, 1)
		if read != nil {
			r.done(read, 1)
		}
	}

	sync := r.series("storage.wal_sync_ms")
	var logged int64
	for i := 0; i < max(r.calls/depth, 4); i++ {
		for j := 0; j < depth; j++ {
			flats = tree.AppendPath(rng.Uint64()%tree.NumLeaves(), flats[:0])
			if err := wal.WriteBuckets(flats, recs); err != nil {
				return err
			}
		}
		fi, err := os.Stat(wal.LogPath())
		if err != nil {
			return err
		}
		logged = fi.Size()
		sync.start()
		err = wal.Sync()
		sync.stop()
		if err != nil {
			return err
		}
	}
	r.done(sync, 1e-6)
	r.out["storage.wal_log_bytes_per_path"] = float64(logged) / depth
	return nil
}

// ---- membus ----

var schedPolicies = []struct {
	name   string
	policy dram.SchedPolicy
}{{"inorder", dram.SchedInOrder}, {"frfcfs", dram.SchedFRFCFS}}

// membus charges one path read and its write-back to a one-port bus of
// dram-rec's data-tree geometry and reports the host time of the pair.
func (r *layerRun) membus(*instance) error {
	for _, v := range schedPolicies {
		bus, err := membus.New(membus.Config{Channels: 2, Sched: dram.SchedConfig{Policy: v.policy}})
		if err != nil {
			return err
		}
		port, err := bus.AttachShard(treeLeafLevel(), 256)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(r.seed))
		leaves := treemath.New(treeLeafLevel()).NumLeaves()
		s := r.series("membus.host_ns_per_path_" + v.name)
		for i := 0; i < r.calls; i++ {
			leaf := rng.Uint64() % leaves
			s.start()
			port.ReadPath(leaf, nil)
			port.WritePath(leaf, false)
			s.stop()
		}
		r.done(s, 1)
	}
	return nil
}

// ---- dram ----

// dram submits one path's column accesses per call: 16 buckets of four
// 64-byte bursts at their flat heap-order addresses.
func (r *layerRun) dram(*instance) error {
	tree := treemath.New(treeLeafLevel())
	for _, v := range schedPolicies {
		sys, err := dram.New(dram.MicronGeometry(2), dram.DDR3Micron())
		if err != nil {
			return err
		}
		if err := sys.SetSched(dram.SchedConfig{Policy: v.policy}); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(r.seed))
		reqs := make([]dram.Request, 0, tree.Levels()*4)
		var at uint64
		s := r.series("dram.access_host_ns_" + v.name)
		for i := 0; i < r.calls; i++ {
			leaf := rng.Uint64() % tree.NumLeaves()
			reqs = reqs[:0]
			for d := 0; d < tree.Levels(); d++ {
				base := tree.PathBucket(leaf, d) * 256
				for b := uint64(0); b < 4; b++ {
					reqs = append(reqs, dram.Request{Addr: base + b*64})
				}
			}
			s.start()
			at = sys.AccessAll(at, reqs)
			s.stop()
		}
		r.done(s, 1)
	}
	return nil
}

// ---- the instrument ----

// loadgen measures the instrument itself: one client's generate, fill and
// check loop against a target that answers from the shadow at once.
func (r *layerRun) loadgen(inst *instance, seed int64) error {
	c := newClients(inst, seed+2)[0]
	// The echo never reaches the tree, so its writes go to a private shadow.
	own := make([]atomic.Uint32, len(c.shadow))
	for a := range own {
		own[a].Store(c.shadow[a].Load())
	}
	c.shadow, c.tgt = own, echoTarget{c}
	start := time.Now()
	n := r.calls * 8
	for i := 0; i < n; i++ {
		c.step(nil, nil)
	}
	r.out["loadgen.overhead_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	return c.firstErr
}

// echoTarget is the no-op target: reads return what the shadow expects and
// writes are dropped, so only the generator and the check take time.
type echoTarget struct{ c *loadClient }

func (t echoTarget) submit(s *submission) error {
	s.out = s.out[:0]
	if s.write {
		return nil
	}
	for i, a := range s.addrs {
		fillBlock(s.data[i], a, t.c.shadow[a].Load())
		s.out = append(s.out, s.data[i])
	}
	return nil
}
