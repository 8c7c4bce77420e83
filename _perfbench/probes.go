package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lattecc/internal/compress"
	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/server"
	"lattecc/internal/sim"
	"lattecc/internal/trace"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// probeInput is what a workload hands the per-layer probes: its machine,
// a few of its runs to simulate directly and through the harness, the
// workloads whose LATTE-CC access streams are recorded and replayed, and
// the results its traced round produced.
type probeInput struct {
	cfg     sim.Config
	keys    []runKey
	streams []string
	results []keyedResult
}

type keyedResult struct {
	key runKey
	res sim.Result
}

// Probe sizes: the access stream is recorded up to recordInsts
// warp-instructions per workload, the codecs run over at most
// linesPerStream distinct lines of each stream, SC rebuilds its code book
// every scPeriod lines, and the store and server probes use at most
// probeResults results and serverJobs jobs per path.
const (
	recordInsts    = 300_000
	linesPerStream = 2048
	scPeriod       = 256
	probeResults   = 64
	serverJobs     = 24
)

// prober runs every probe and collects the per-layer metrics.
type prober struct {
	tr        *tracer
	in        probeInput
	opts      options
	root      int
	m         map[string]float64
	attempted int
	failed    int
	direct    map[runKey]sim.Result
	store     *resultstore.Store
}

func (p *prober) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		fmt.Printf("FAIL "+format+"\n", args...)
	}
}

// runProbes times calls into each layer's public functions on the
// workload's own inputs. Layers that the traced round already exercised
// (sim on table2-sim, harness on fig11-batch, server on serve-warm) add
// their round spans and counters to the probe's.
func runProbes(tr *tracer, in probeInput, opts options) (map[string]float64, int, int, error) {
	p := &prober{tr: tr, in: in, opts: opts, m: map[string]float64{}, direct: map[runKey]sim.Result{}}
	p.root = tr.begin("probe", -1)
	defer tr.end(p.root)
	for _, step := range []func() error{p.sims, p.streams, p.corpus, p.resultStore, p.harness, p.serve} {
		if err := step(); err != nil {
			return nil, 0, 0, err
		}
	}
	p.simMetrics()
	return p.m, p.attempted, p.failed, nil
}

// sims runs the probe keys through sim.New + Sim.Run.
func (p *prober) sims() error {
	for _, k := range p.in.keys {
		res, err := simulate(p.in.cfg, k, p.tr, p.root)
		if err != nil {
			return err
		}
		p.direct[k] = res
	}
	return nil
}

func (p *prober) simMetrics() {
	var runNS, newNS, alloc, cycles, insts, l1, mshr, l2, dram, eps, switches, lattes float64
	for _, s := range p.tr.sims {
		runNS += float64(s.runTime)
		newNS += float64(s.newTime)
		alloc += float64(s.allocBytes)
		cycles += float64(s.cycles)
		insts += float64(s.insts)
		l1 += float64(s.l1Accesses)
		mshr += float64(s.mshrStalls)
		l2 += float64(s.l2Accesses)
		dram += float64(s.dramReads)
		if s.policy == string(harness.LatteCC) {
			eps += float64(s.eps)
			switches += float64(s.switches)
			lattes++
		}
	}
	n := float64(len(p.tr.sims))
	p.m["sim.run_s"] = runNS / n / 1e9
	p.m["sim.ns_per_cycle"] = runNS / cycles
	p.m["sim.ns_per_inst"] = runNS / insts
	p.m["sim.alloc_mb_per_run"] = alloc / n / 1e6
	p.m["sim.new_us"] = newNS / n / 1e3
	p.m["sim.cycles"] = cycles / n
	p.m["sim.instructions"] = insts / n
	p.m["sim.l1_accesses"] = l1 / n
	p.m["sim.mshr_stall_cycles"] = mshr / n
	p.m["mem.l2_accesses"] = l2 / n
	p.m["mem.dram_reads"] = dram / n
	p.m["core.eps"] = eps / lattes
	p.m["core.switches"] = switches / lattes
}

// replayTotals accumulates tracefile.Replay over several streams.
type replayTotals struct {
	ns, allocBytes, records float64
	stats                   []tracefile.ReplayResult
}

func (t *replayTotals) add(d time.Duration, alloc uint64, rr tracefile.ReplayResult) {
	t.ns += float64(d)
	t.allocBytes += float64(alloc)
	t.records += float64(rr.Records)
	t.stats = append(t.stats, rr)
}

// streams records each stream workload's L1 access stream once through
// Config.Trace, replays it through cache.Access/Fill under three
// policies, and runs the codecs over the lines it touches.
func (p *prober) streams() error {
	replays := map[harness.Policy]*replayTotals{}
	policies := []harness.Policy{harness.Uncompressed, harness.StaticBDI, harness.LatteCC}
	for _, pol := range policies {
		replays[pol] = &replayTotals{}
	}
	var lines [][]byte
	var lineNS float64
	for _, name := range p.in.streams {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		stream, err := p.record(w)
		if err != nil {
			return err
		}
		for _, pol := range policies {
			factory, err := controllerFactory(pol)
			if err != nil {
				return err
			}
			r, err := tracefile.NewReader(bytes.NewReader(stream))
			if err != nil {
				return err
			}
			alloc0 := heapAllocs()
			id := p.tr.begin("tracefile.Replay("+string(pol)+")", p.root)
			rr, err := tracefile.Replay(r, p.in.cfg.Cache, factory, w.Data(), string(pol))
			d := p.tr.end(id)
			if err != nil {
				return err
			}
			replays[pol].add(d, heapAllocs()-alloc0, rr)
		}

		addrs, err := lineAddrs(stream, uint64(p.in.cfg.Cache.LineSize))
		if err != nil {
			return err
		}
		data := w.Data()
		id := p.tr.begin("workload.DataSource.Line", p.root)
		var sink byte
		for _, a := range addrs {
			sink ^= data.Line(a)[0]
		}
		lineNS += float64(p.tr.end(id))
		_ = sink
		for _, a := range addrs {
			lines = append(lines, append([]byte(nil), data.Line(a)...))
		}
	}
	if len(lines) == 0 {
		return fmt.Errorf("access streams of %v touched no lines", p.in.streams)
	}

	l := replays[harness.LatteCC]
	var hits, accesses, fills, compHits float64
	for _, rr := range l.stats {
		hits += float64(rr.Cache.Hits)
		accesses += float64(rr.Cache.Accesses)
		fills += float64(rr.Cache.Fills)
		compHits += float64(rr.Cache.CompressedHits)
	}
	p.m["cache.access_ns"] = l.ns / l.records
	p.m["cache.access_ns_uncompressed"] = replays[harness.Uncompressed].ns / replays[harness.Uncompressed].records
	p.m["cache.alloc_b_per_access"] = l.allocBytes / l.records
	p.m["cache.hit_rate"] = hits / accesses
	p.m["cache.fills"] = fills
	p.m["cache.compressed_hits"] = compHits
	p.m["core.overhead_ns_per_access"] = (l.ns - replays[harness.StaticBDI].ns) / l.records
	p.m["workload.line_ns"] = lineNS / float64(len(lines))
	p.codecs(lines)
	return nil
}

// record runs w under LATTE-CC with a tracefile.Writer on Config.Trace.
func (p *prober) record(w trace.Workload) ([]byte, error) {
	factory, err := controllerFactory(harness.LatteCC)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, w.Name())
	if err != nil {
		return nil, err
	}
	cfg := p.in.cfg
	cfg.MaxInstructions = min(cfg.MaxInstructions, recordInsts)
	cfg.Trace = tw
	id := p.tr.begin("sim.Run(record)", p.root)
	sim.New(cfg, w, factory).Run()
	p.tr.end(id)
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// lineAddrs returns up to linesPerStream distinct line addresses read in
// the stream, evenly spaced over the distinct set in first-touch order.
func lineAddrs(stream []byte, lineSize uint64) ([]uint64, error) {
	r, err := tracefile.NewReader(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	seen := map[uint64]bool{}
	var all []uint64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if a := rec.Addr / lineSize; !rec.Write && !seen[a] {
			seen[a] = true
			all = append(all, a)
		}
	}
	step := max(1, len(all)/linesPerStream)
	var out []uint64
	for i := 0; i < len(all) && len(out) < linesPerStream; i += step {
		out = append(out, all[i])
	}
	return out, nil
}

// codecs times BDI and SC per line, SC training per line and its code
// book rebuild per period, and checks every line round-trips.
func (p *prober) codecs(lines [][]byte) {
	n := float64(len(lines))
	bdi := compress.NewBDI()
	measure, decompress, ratio := p.codecPass(bdi, lines)
	p.m["compress.bdi.measure_ns"] = measure / n
	p.m["compress.bdi.decompress_ns"] = decompress / n
	p.m["compress.bdi.ratio"] = ratio

	sc := compress.NewSC()
	var trainNS float64
	var rebuildUS, rebuildKB []float64
	for start := 0; start < len(lines); start += scPeriod {
		id := p.tr.begin("compress.SC.Train", p.root)
		for _, l := range lines[start:min(start+scPeriod, len(lines))] {
			sc.Train(l)
		}
		trainNS += float64(p.tr.end(id))
		alloc0 := heapAllocs()
		id = p.tr.begin("compress.SC.Rebuild", p.root)
		sc.Rebuild()
		rebuildUS = append(rebuildUS, us(p.tr.end(id)))
		rebuildKB = append(rebuildKB, float64(heapAllocs()-alloc0)/1e3)
	}
	measure, decompress, ratio = p.codecPass(sc, lines)
	p.m["compress.sc.train_ns"] = trainNS / n
	p.m["compress.sc.rebuild_us"] = median(rebuildUS)
	p.m["compress.sc.rebuild_alloc_kb"] = mean(rebuildKB)
	p.m["compress.sc.measure_ns"] = measure / n
	p.m["compress.sc.decompress_ns"] = decompress / n
	p.m["compress.sc.ratio"] = ratio
}

// codecPass returns the total Measure and Decompress time over lines in
// nanoseconds and the compression ratio, and checks each round trip.
func (p *prober) codecPass(c compress.Codec, lines [][]byte) (measureNS, decompressNS, ratio float64) {
	var size int
	id := p.tr.begin("compress."+c.Name()+".Measure", p.root)
	for _, l := range lines {
		size += c.Measure(l).Size
	}
	measureNS = float64(p.tr.end(id))

	encs := make([]compress.Encoded, len(lines))
	for i, l := range lines {
		encs[i] = c.Compress(l)
	}
	outs := make([][]byte, len(lines))
	errs := make([]error, len(lines))
	id = p.tr.begin("compress."+c.Name()+".Decompress", p.root)
	for i, e := range encs {
		outs[i], errs[i] = c.Decompress(e)
	}
	decompressNS = float64(p.tr.end(id))

	bad := 0
	for i := range lines {
		if errs[i] != nil || !bytes.Equal(outs[i], lines[i]) {
			bad++
		}
	}
	p.check(bad == 0, "%s: %d of %d lines do not round-trip", c.Name(), bad, len(lines))
	return measureNS, decompressNS, float64(len(lines)*compress.LineSize) / float64(size)
}

// corpus times LoadCorpus and replays each corpus trace through the
// cache under LATTE-CC.
func (p *prober) corpus() error {
	dir := filepath.Join(p.opts.root, "testdata", "traces")
	id := p.tr.begin("tracefile.LoadCorpus", p.root)
	ws, err := tracefile.LoadCorpus(dir)
	d := p.tr.end(id)
	if err != nil {
		return err
	}
	p.m["tracefile.corpus_load_ms"] = ms(d)
	factory, err := controllerFactory(harness.LatteCC)
	if err != nil {
		return err
	}
	var ns, records float64
	for _, w := range ws {
		raw, err := os.ReadFile(filepath.Join(dir, w.Name()+".lct"))
		if err != nil {
			return err
		}
		r, err := tracefile.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		id := p.tr.begin("tracefile.Replay(corpus "+w.Name()+")", p.root)
		rr, err := tracefile.Replay(r, p.in.cfg.Cache, factory, w.Data(), string(harness.LatteCC))
		ns += float64(p.tr.end(id))
		if err != nil {
			return err
		}
		records += float64(rr.Records)
	}
	p.m["tracefile.replay_ns_per_record"] = ns / records
	return nil
}

// resultStore saves the workload's results into an empty store, reopens
// it, and loads every entry back.
func (p *prober) resultStore() error {
	dir := filepath.Join(p.opts.tmp, "probe-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		return err
	}
	results := p.in.results[:min(len(p.in.results), probeResults)]
	fp := p.in.cfg.Fingerprint()
	key := func(r keyedResult) harness.StoreKey {
		return harness.StoreKey{Fingerprint: fp, Workload: r.key.workload, Policy: r.key.policy}
	}
	for _, r := range results {
		id := p.tr.begin("resultstore.Load(empty)", p.root)
		_, ok := st.Load(key(r))
		p.tr.end(id)
		p.check(!ok, "resultstore: empty store served %s", r.key)
		id = p.tr.begin("resultstore.Save", p.root)
		st.Save(key(r), r.res)
		p.tr.end(id)
	}

	id := p.tr.begin("resultstore.Open", p.root)
	st2, err := resultstore.Open(dir, resultstore.Options{})
	d := p.tr.end(id)
	if err != nil {
		return err
	}
	for _, r := range results {
		id := p.tr.begin("resultstore.Load", p.root)
		res, ok := st2.Load(key(r))
		p.tr.end(id)
		p.check(ok && res.StateHash() == r.res.StateHash(), "resultstore: %s did not load back", r.key)
	}
	c1, c2 := st.Counters(), st2.Counters()
	p.m["resultstore.open_ms"] = ms(d)
	p.m["resultstore.load_us_p50"] = hdQuantile(spanUS(p.tr, "resultstore.Load"), 0.5)
	p.m["resultstore.load_us_p90"] = hdQuantile(spanUS(p.tr, "resultstore.Load"), 0.9)
	p.m["resultstore.save_us_p50"] = hdQuantile(spanUS(p.tr, "resultstore.Save"), 0.5)
	p.m["resultstore.save_us_p90"] = hdQuantile(spanUS(p.tr, "resultstore.Save"), 0.9)
	p.m["resultstore.entry_bytes"] = float64(c2.Bytes) / float64(c2.Entries)
	p.m["resultstore.hits"] = float64(c1.Hits + c2.Hits)
	p.m["resultstore.misses"] = float64(c1.Misses + c2.Misses)
	p.m["resultstore.corrupt"] = float64(c1.Corrupt + c2.Corrupt)
	p.store = st2
	return nil
}

func spanUS(tr *tracer, name string) []float64 {
	var out []float64
	for _, d := range tr.durations(name) {
		out = append(out, us(d))
	}
	return out
}

func spanMS(tr *tracer, name string) []float64 {
	return durationsMS(tr.durations(name))
}

// harness runs the probe keys through a fresh Suite, checks each against
// the direct run, runs them again as cache hits, and serves one key from
// the probe store.
func (p *prober) harness() error {
	suite := harness.NewSuite(p.in.cfg)
	for _, span := range []string{"harness.Suite.Run(fresh)", "harness.Suite.Run(hit)"} {
		for _, k := range p.in.keys {
			id := p.tr.begin(span, p.root)
			res, err := suite.Run(k.workload, k.policy, harness.Variant{})
			p.tr.end(id)
			p.check(err == nil && res.StateHash() == p.direct[k].StateHash(),
				"harness %s disagrees with the direct run (err=%v)", k, err)
		}
	}
	stored := harness.NewSuite(p.in.cfg)
	stored.Store = p.store
	for _, r := range p.in.results[:min(len(p.in.results), len(p.in.keys))] {
		id := p.tr.begin("harness.Suite.Run(store)", p.root)
		res, err := stored.Run(r.key.workload, r.key.policy, harness.Variant{})
		p.tr.end(id)
		p.check(err == nil && res.StateHash() == r.res.StateHash(), "harness store hit %s (err=%v)", r.key, err)
	}
	for _, s := range []*harness.Suite{suite, stored} {
		p.tr.count("harness.fresh_sims", float64(s.Simulations()))
		p.tr.count("harness.cache_hits", float64(s.CacheHits()))
		p.tr.count("harness.store_hits", float64(s.StoreHits()))
	}
	fresh := spanMS(p.tr, "harness.Suite.Run(fresh)")
	p.m["harness.run_fresh_ms_p50"] = hdQuantile(fresh, 0.5)
	p.m["harness.run_fresh_ms_p90"] = hdQuantile(fresh, 0.9)
	p.m["harness.run_hit_us_p50"] = hdQuantile(spanUS(p.tr, "harness.Suite.Run(hit)"), 0.5)
	for _, c := range []string{"harness.fresh_sims", "harness.cache_hits", "harness.store_hits"} {
		p.m[c] = p.tr.counter(c)
	}
	return nil
}

// serve submits store-hit jobs for the workload's results directly to a
// worker and through the router, each under its own max_cycles salt so
// every job is the first of its fingerprint and key on its worker.
func (p *prober) serve() error {
	results := p.in.results[:min(len(p.in.results), probeResults)]
	type entry struct {
		salt int
		r    keyedResult
	}
	entries := make([]entry, 2*serverJobs)
	for i := range entries {
		entries[i] = entry{1 + i/len(results), results[i%len(results)]}
	}
	overrides := func(salt int) *server.ConfigOverrides {
		maxCycles := p.in.cfg.MaxCycles + uint64(salt)
		return &server.ConfigOverrides{MaxCycles: &maxCycles}
	}
	cl, err := newCluster(p.in.cfg, 2)
	if err != nil {
		return err
	}
	defer cl.stop()
	stores, err := openStores(p.opts.tmp, "probe-serve-store", len(cl.workerURLs))
	if err != nil {
		return err
	}
	for i, e := range entries {
		cfg, err := overrides(e.salt).Apply(p.in.cfg)
		if err != nil {
			return err
		}
		fp := cfg.Fingerprint()
		owner := 0 // direct jobs go to the first worker
		if i >= serverJobs {
			owner = cl.owner(fp)
		}
		stores[owner].Save(harness.StoreKey{Fingerprint: fp, Workload: e.r.key.workload, Policy: e.r.key.policy}, e.r.res)
	}
	if err := cl.start(p.in.cfg, stores); err != nil {
		return err
	}

	for i, e := range entries {
		base, job, submit := cl.workerURLs[0], "server.job", "server.submit"
		if i >= serverJobs {
			base, job, submit = cl.routerURL, "cluster.job", "cluster.submit"
		}
		body, err := json.Marshal(server.SubmitRequest{
			Workload: e.r.key.workload, Policy: string(e.r.key.policy), Config: overrides(e.salt),
		})
		if err != nil {
			return err
		}
		id := p.tr.begin(job, p.root)
		_, early, err := submitAndWait(cl.client, base, body, e.r.res.StateHash(), p.tr, id, submit)
		p.tr.end(id)
		p.tr.count("server.sse_early_close", float64(early))
		p.check(err == nil, "%s %s: %v", job, e.r.key, err)
	}
	for _, url := range cl.workerURLs {
		if err := countServerMetrics(cl.client, url, p.tr); err != nil {
			return err
		}
	}
	done := spanMS(p.tr, "server.job")
	p.m["server.submit_ms_p50"] = hdQuantile(spanMS(p.tr, "server.submit"), 0.5)
	p.m["server.done_ms_p50"] = hdQuantile(done, 0.5)
	p.m["server.done_ms_p90"] = hdQuantile(done, 0.9)
	p.m["cluster.submit_ms_p50"] = hdQuantile(spanMS(p.tr, "cluster.submit"), 0.5)
	p.m["cluster.hop_ms_p50"] = hdQuantile(spanMS(p.tr, "cluster.job"), 0.5) - hdQuantile(done, 0.5)
	for _, c := range []string{"server.resident_suites", "server.fresh", "server.cache_hits", "server.store_hits", "server.sse_early_close"} {
		p.m[c] = p.tr.counter(c)
	}
	return nil
}
