package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"cuisines"
	"cuisines/internal/server"
)

// analysisBench is the shared harness of the three workloads whose
// operation brings one analysis up — by computing it, by reading it
// from disk, or by fetching it from a peer — and then serves it.
type analysisBench struct {
	cfg  *config
	opts cuisines.Options
	ref  *reference
	rep  *report
	rec  *recorder // nil outside the traced phase

	lat      []float64 // analysis op latencies, ms
	tracedMS []float64 // traced op latencies, ms
	replayMS []float64 // untraced replay latencies, ms
	serve    serveResult
	stages   map[string]uint64 // summed Engine.CacheStats counters
	stageOps int
	renders  cuisines.RenderCacheStats
	req      int // operation counter; the traced phase's request ids
	tracedOp []int
}

func newAnalysisBench(cfg *config) *analysisBench {
	return &analysisBench{
		cfg:    cfg,
		opts:   cuisines.Options{Seed: cfg.corpusSeed, Scale: 1},
		rep:    newReport(),
		stages: map[string]uint64{},
	}
}

// setReference records a set-up repetition's reference; every
// repetition must agree with the first, and at the paper's default
// corpus all eight Sec. VII claims must hold.
func (b *analysisBench) setReference(ref *reference) {
	if b.ref == nil {
		b.ref = ref
		if b.cfg.seed == 0 && (!ref.claims.AllHold || len(ref.claims.Claims) != 8) {
			b.rep.problem("default corpus: %d claims, all_hold=%v; want 8 holding", len(ref.claims.Claims), ref.claims.AllHold)
		}
		b.rep.notes["reference_digest"] = ref.digest
		return
	}
	if ref.digest != b.ref.digest {
		b.rep.problem("set-up repetitions disagree: digest %s vs %s", ref.digest, b.ref.digest)
	}
}

// account adds one operation's engine counters and serve check.
func (b *analysisBench) account(stats map[string]cuisines.StageCacheStats, sr serveResult, srv *server.Server) {
	for k, v := range stageTotals(stats) {
		b.stages[k] += v
	}
	b.stageOps++
	b.serve.variants = append(b.serve.variants, sr.variants...)
	b.serve.hits.merge(&sr.hits)
	b.serve.attempts += sr.attempts
	b.serve.failed += sr.failed
	if srv != nil {
		r := srv.CacheStats().Renders
		b.renders.Hits += r.Hits
		b.renders.Misses += r.Misses
		b.renders.Evictions += r.Evictions
		b.renders.Bytes += r.Bytes
		b.renders.GzipVariants += r.GzipVariants
		b.renders.NotModified += r.NotModified
	}
}

// loop runs op at least once and then until end, with a GC before
// each operation so one operation's garbage is not billed to the next.
// op returns its latency and whether it succeeded; failed operations
// are not timed.
func (b *analysisBench) loop(end time.Time, op func(req int) (time.Duration, bool)) {
	for first := true; first || time.Now().Before(end); first = false {
		b.req++
		runtime.GC()
		d, ok := op(b.req)
		b.rep.attempted++
		if !ok {
			b.rep.failed++
			continue
		}
		if b.rec != nil {
			b.tracedMS = append(b.tracedMS, ms(d))
			b.tracedOp = append(b.tracedOp, b.req)
		} else {
			b.lat = append(b.lat, ms(d))
		}
	}
}

// measure runs one dropped warm-up operation (unless warm is false),
// then the untraced phase and, for a traced run, the traced phase
// (traced replaces op there). When traced is the benchmark's replay of
// op rather than op itself, replay runs that replay with a nil recorder:
// a traced run times it after each untraced operation, so the tracing
// overhead compares the replay with itself.
func (b *analysisBench) measure(warm bool, op, traced, replay func(req int) (time.Duration, bool)) *runtimeSample {
	if warm {
		b.req++
		runtime.GC()
		op(b.req)
	}
	b.lat, b.serve, b.stages, b.stageOps, b.renders = nil, serveResult{}, map[string]uint64{}, 0, cuisines.RenderCacheStats{}
	rt := startRuntime()
	untracedEnd, tracedEnd := phases(b.cfg, time.Now())
	untraced := op
	if b.cfg.trace && replay != nil {
		untraced = func(req int) (time.Duration, bool) {
			d, ok := op(req)
			runtime.GC()
			if rd, rok := replay(req); rok {
				b.replayMS = append(b.replayMS, ms(rd))
			}
			return d, ok
		}
	}
	b.loop(untracedEnd, untraced)
	if b.cfg.trace {
		b.rec = newRecorder()
		b.loop(tracedEnd, traced)
	}
	return rt
}

// finish reports the end-to-end metrics (and, traced, the layers this
// harness measures) once the phases are done. keep is held alive
// through the final heap measurement: the state a user would hold.
func (b *analysisBench) finish(setup float64, rt *runtimeSample, keep ...any) *report {
	rep := b.rep
	// The serve check's requests are part of each operation: a wrong
	// answer already failed it.
	rep.notes["serve_check_requests"], rep.notes["serve_check_failed"] = b.serve.attempts, b.serve.failed
	ops := len(b.lat) + len(b.tracedMS)
	rt.stop(rep, ops)
	heap := liveHeapMB()
	runtime.KeepAlive(keep)
	reportE2E(rep, setup, b.lat, b.serve.variants, &b.serve.hits, heap)
	rep.notes["variant_ms"] = b.serve.variants
	rep.notes["analysis_ms"] = b.lat
	if !b.cfg.trace {
		return rep
	}
	n := float64(max(b.stageOps, 1))
	setArtifactLayers(rep, b.stages, n)
	setRenderLayers(rep, b.renders, n)
	untraced, share := b.lat, 1.0
	if len(b.replayMS) > 0 {
		untraced, share = b.replayMS, median(b.replayMS)/median(b.lat)
	}
	setTraceCost(rep, untraced, b.tracedMS, share)
	rep.spans = b.rec.snapshot()
	return rep
}

// reportE2E sets the user-facing metrics every workload measures: the
// end-to-end ones, and the hit tail, hit throughput and variant latency
// that are printed with the per-layer ones.
func reportE2E(rep *report, setup float64, analysis, variants []float64, hits *hitTally, heapMB float64) {
	rep.set("setup_s", setup, "s")
	rep.set("analysis_p50_ms", finite(median(analysis)), "ms")
	rep.samples["analysis_p50_ms"] = len(analysis)
	rep.set("variant_p50_ms", finite(median(variants)), "ms")
	rep.samples["variant_p50_ms"] = len(variants)
	rep.set("hit_p50_ms", finite(median(hits.lat)), "ms")
	tail, pct := hits.tail()
	rep.set("hit_p99_ms", finite(tail), "ms")
	rep.samples["hit_p50_ms"] = len(hits.lat)
	rep.samples["hit_p99_ms"] = len(hits.lat)
	rep.samples["hit_p99_groups"] = len(hits.groups)
	rep.notes["hit_p99_percentile"] = pct
	pooled, _ := tailPercentile(hits.lat)
	rep.notes["hit_p99_pooled_ms"] = pooled
	rep.set("hit_rps", finite(median(hits.rates)), "1/s")
	rep.set("bytes_per_hit", finite(float64(hits.bytes)/float64(len(hits.lat))), "bytes")
	rep.set("heap_live_mb", heapMB, "MB")
	// Operations only: analyses on the first three workloads, variant
	// requests on serve-mixed.
	ok := 1.0
	if rep.attempted > 0 {
		ok = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	}
	rep.set("ok_share", ok, "ratio")
}

// setTraceCost reports the cost of tracing: the median of one call
// timed untraced and traced, their difference, and replayShare, the
// untraced call's time as a share of the program's own operation (1
// when the traced call is the program's operation).
func setTraceCost(rep *report, untraced, traced []float64, replayShare float64) {
	u, t := median(untraced), median(traced)
	rep.set("trace.untraced_p50_ms", finite(u), "ms")
	rep.set("trace.traced_p50_ms", finite(t), "ms")
	rep.set("trace.overhead_ms", finite(t-u), "ms")
	rep.set("trace.replay_share", finite(replayShare), "ratio")
	rep.samples["trace.untraced"] = len(untraced)
	rep.samples["trace.traced"] = len(traced)
}

// stageCounters are the Engine.CacheStats counters, summed over kinds.
var stageCounters = []string{"memory_hits", "disk_hits", "peer_hits", "computed", "inflight_joins", "evictions"}

func stageTotals(stats map[string]cuisines.StageCacheStats) map[string]uint64 {
	t := map[string]uint64{}
	for _, s := range stats {
		t["memory_hits"] += s.Hits
		t["disk_hits"] += s.DiskHits
		t["peer_hits"] += s.PeerHits
		t["computed"] += s.Computed
		t["inflight_joins"] += s.InFlightJoins
		t["evictions"] += s.Evictions
	}
	return t
}

// setArtifactLayers reports the stage counters per operation and the
// share of stage resolutions that reused an artifact.
func setArtifactLayers(rep *report, t map[string]uint64, ops float64) {
	for _, k := range stageCounters {
		rep.set("artifact."+k, float64(t[k])/ops, "count")
	}
	reused := t["memory_hits"] + t["disk_hits"] + t["peer_hits"]
	rep.set("artifact.reuse_ratio", finite(float64(reused)/float64(reused+t["computed"])), "ratio")
}

func setRenderLayers(rep *report, r cuisines.RenderCacheStats, ops float64) {
	rep.set("render.hits", float64(r.Hits)/ops, "count")
	rep.set("render.misses", float64(r.Misses)/ops, "count")
	rep.set("render.hit_ratio", finite(float64(r.Hits)/float64(r.Hits+r.Misses)), "ratio")
	rep.set("render.evictions", float64(r.Evictions)/ops, "count")
	rep.set("render.bytes", float64(r.Bytes)/ops, "bytes")
	rep.set("render.gzip_variants", float64(r.GzipVariants)/ops, "count")
	rep.set("render.not_modified", float64(r.NotModified)/ops, "count")
}

// serveHarness is one loopback listener whose handler is swapped to a
// fresh server.New per operation, and the client that reaches it.
type serveHarness struct {
	sw     *swapHandler
	lb     *loopback
	client *http.Client
	get    getter
}

func newServeHarness() (*serveHarness, error) {
	sw := &swapHandler{h: http.NotFoundHandler()}
	lb, err := listen(sw)
	if err != nil {
		return nil, err
	}
	c := newClient(1)
	return &serveHarness{sw: sw, lb: lb, client: c, get: clientGetter(c, lb.url)}, nil
}

func (h *serveHarness) close() {
	h.client.CloseIdleConnections()
	_ = h.lb.close()
}

// serveEngine serves engine's analysis through a fresh daemon-shaped
// server on the harness and runs the serve check against it.
func (b *analysisBench) serveEngine(h *serveHarness, engine *cuisines.Engine) (serveResult, *server.Server) {
	srv := server.New(daemonConfig(b.opts, engine))
	h.sw.set(srv)
	return serveCheck(h.get, nil, b.ref, linkages, nil), srv
}

func totalStat(stats map[string]cuisines.StageCacheStats, f func(cuisines.StageCacheStats) uint64) uint64 {
	var t uint64
	for _, s := range stats {
		t += f(s)
	}
	return t
}

// runCold measures cold-analysis: a fresh engine over an empty cache
// directory runs the full evaluation once per operation.
func runCold(cfg *config) (*report, error) {
	b := newAnalysisBench(cfg)
	setup, err := timeSetup(func(int) error {
		dir, err := os.MkdirTemp(cfg.workDir, "ref-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		e := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})
		if _, err := e.Run(b.opts); err != nil {
			return err
		}
		ref, err := buildReference(e, b.opts, true)
		if err != nil {
			return err
		}
		b.setReference(ref)
		return nil
	})
	if err != nil {
		return nil, err
	}
	h, err := newServeHarness()
	if err != nil {
		return nil, err
	}
	defer h.close()

	var keepEngine *cuisines.Engine
	// The last untraced operation's cache dir and the frames its run
	// wrote (the serve check's variants add more), for the replay check.
	var lastDir string
	var lastFiles []artifactFile
	op := func(int) (time.Duration, bool) {
		dir, err := os.MkdirTemp(cfg.workDir, "cold-")
		if err != nil {
			return 0, false
		}
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = dir
		e := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})
		start := time.Now()
		_, err = e.Run(b.opts)
		d := time.Since(start)
		if err != nil {
			return d, false
		}
		stats := e.CacheStats()
		if lastFiles, err = artifactFiles(dir); err != nil {
			return d, false
		}
		sr, srv := b.serveEngine(h, e)
		b.account(stats, sr, srv)
		keepEngine = e
		return d, sr.failed == 0
	}
	var patterns []float64
	valueOnly := 0
	// replay replays the cold run, traced when rec is set; either way
	// the frames it writes must be the ones the last cold run wrote.
	replay := func(rec *recorder, req int) (time.Duration, bool) {
		dir, err := os.MkdirTemp(cfg.workDir, "replay-")
		if err != nil {
			return 0, false
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		root := rec.begin("op.cold", 0, req)
		n, err := replayCold(rec, req, root, cfg.corpusSeed, b.opts.Scale, dir)
		rec.end(root)
		d := time.Since(start)
		if err != nil {
			b.rep.problem("replay: %v", err)
			return d, false
		}
		// The replay must have done the cold run's work: the same frames.
		files, err := artifactFiles(dir)
		if err == nil {
			var v int
			v, err = matchFrames(files, lastFiles)
			valueOnly = max(valueOnly, v)
		}
		if err != nil {
			b.rep.problem("replay frames: %v", err)
			return d, false
		}
		patterns = append(patterns, float64(n))
		return d, true
	}
	// No separate warm-up: set-up already ran this very operation, a
	// cold run on a fresh engine, setupReps times in this process.
	rt := b.measure(false, op,
		func(req int) (time.Duration, bool) { return replay(b.rec, req) },
		func(req int) (time.Duration, bool) { return replay(nil, req) })
	rep := b.finish(setup, rt, keepEngine)
	if cfg.trace {
		var writeBytes int64
		for _, f := range lastFiles {
			if st, err := os.Stat(f.path); err == nil {
				writeBytes += st.Size()
			}
		}
		setComputeLayers(rep, b.tracedOp, patterns, float64(writeBytes))
		rep.set("artifact.frames_equal_by_value_only", float64(valueOnly), "count")
	}
	return rep, nil
}

// setComputeLayers derives the compute, pipeline and artifact-write
// layers from the cold replay's spans.
func setComputeLayers(rep *report, reqs []int, patterns []float64, writeBytes float64) {
	self := selfTimes(rep.spans)
	for _, l := range computeLayers {
		name := l + ".ms"
		if l == "corpus.generate" {
			name = "corpus.generate_ms"
		}
		rep.set(name, finite(median(layerSelfMS(rep.spans, self, l, reqs))), "ms")
	}
	rep.set("mine.patterns", finite(median(patterns)), "count")
	var stageSum, wall []float64
	for _, r := range reqs {
		var s, w float64
		for _, sp := range rep.spans {
			if sp.Req != r {
				continue
			}
			switch {
			case sp.Name == "op.cold":
				w = float64(sp.End-sp.Start) / 1e6
			case len(sp.Name) > 6 && sp.Name[:6] == "stage.":
				s += float64(sp.End-sp.Start) / 1e6
			}
		}
		stageSum = append(stageSum, s)
		wall = append(wall, w)
	}
	rep.set("pipeline.stage_sum_ms", finite(median(stageSum)), "ms")
	rep.set("pipeline.parallelism", finite(median(stageSum)/median(wall)), "ratio")
	rep.set("artifact.encode_ms", finite(median(layerSelfMS(rep.spans, self, "artifact.encode", reqs))), "ms")
	rep.set("artifact.write_ms", finite(median(layerSelfMS(rep.spans, self, "artifact.write", reqs))), "ms")
	rep.set("artifact.write_bytes", writeBytes, "bytes")
	rep.set("trace.root_self_ms", finite(median(layerSelfMS(rep.spans, self, "op.cold", reqs))), "ms")
}

// runWarm measures warm-restart: set-up fills a cache directory with
// one cold run; each operation builds a fresh engine over it and reruns
// the same options, which must resolve every stage from disk.
func runWarm(cfg *config) (*report, error) {
	b := newAnalysisBench(cfg)
	var dir string
	var files []artifactFile // the frames the cold fill wrote
	setup, err := timeSetup(func(int) error {
		if dir != "" {
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(cfg.workDir, "fill-"); err != nil {
			return err
		}
		e := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})
		if _, err := e.Run(b.opts); err != nil {
			return err
		}
		// Listed before the reference's linkage variants add frames of
		// their own: a warm run at base options loads exactly these.
		if files, err = artifactFiles(dir); err != nil {
			return err
		}
		computed := totalStat(e.CacheStats(), func(s cuisines.StageCacheStats) uint64 { return s.Computed })
		if computed != uint64(len(files)) {
			return fmt.Errorf("cold fill computed %d stages but wrote %d frames", computed, len(files))
		}
		ref, err := buildReference(e, b.opts, true)
		if err != nil {
			return err
		}
		b.setReference(ref)
		return nil
	})
	if err != nil {
		return nil, err
	}
	baseFrames := len(files)
	h, err := newServeHarness()
	if err != nil {
		return nil, err
	}
	defer h.close()

	var keepEngine *cuisines.Engine
	op := func(int) (time.Duration, bool) {
		start := time.Now()
		e := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: dir})
		_, err := e.Run(b.opts)
		d := time.Since(start)
		if err != nil {
			return d, false
		}
		stats := e.CacheStats()
		computed := totalStat(stats, func(s cuisines.StageCacheStats) uint64 { return s.Computed })
		disk := totalStat(stats, func(s cuisines.StageCacheStats) uint64 { return s.DiskHits })
		sr, srv := b.serveEngine(h, e)
		b.account(stats, sr, srv)
		keepEngine = e
		// Path gate: a silent fall-back to compute is a failure, not a
		// fast or slow warm restart.
		return d, computed == 0 && disk == uint64(baseFrames) && sr.failed == 0
	}
	replay := func(rec *recorder, req int) (time.Duration, bool) {
		start := time.Now()
		root := rec.begin("op.warm", 0, req)
		err := replayRead(rec, req, root, files)
		rec.end(root)
		if err != nil {
			b.rep.problem("read replay: %v", err)
			return 0, false
		}
		return time.Since(start), true
	}
	rt := b.measure(true, op,
		func(req int) (time.Duration, bool) { return replay(b.rec, req) },
		func(req int) (time.Duration, bool) { return replay(nil, req) })
	rep := b.finish(setup, rt, keepEngine)
	rep.notes["cold_fill_frames"] = baseFrames
	if cfg.trace {
		setReadLayers(rep, b.tracedOp, "artifact.read")
	}
	return rep, nil
}

// setReadLayers derives the read-side artifact layers from the spans
// of the traced operations. read names the span that stands for
// getting the bytes (a disk read here, a peer fetch on peer-warm).
func setReadLayers(rep *report, reqs []int, read string) {
	self := selfTimes(rep.spans)
	perReq := func(match func(string) bool) []float64 {
		out := make([]float64, len(reqs))
		idx := map[int]int{}
		for i, r := range reqs {
			idx[r] = i
		}
		for _, sp := range rep.spans {
			if i, ok := idx[sp.Req]; ok && match(sp.Name) {
				out[i] += float64(self[sp.ID]) / 1e6
			}
		}
		return out
	}
	prefix := func(p string) func(string) bool {
		return func(n string) bool { return len(n) >= len(p) && n[:len(p)] == p }
	}
	verify := perReq(prefix("artifact.verify."))
	decode := perReq(prefix("artifact.decode."))
	vCorpus := perReq(func(n string) bool { return n == "artifact.verify.corpus" })
	dCorpus := perReq(func(n string) bool { return n == "artifact.decode.corpus" })
	for i := range decode {
		decode[i] -= verify[i]
		dCorpus[i] -= vCorpus[i]
	}
	if read != "" {
		rep.set("artifact.read_ms", finite(median(perReq(func(n string) bool { return n == read }))), "ms")
	}
	rep.set("artifact.verify_ms", finite(median(verify)), "ms")
	rep.set("artifact.decode_ms", finite(median(decode)), "ms")
	rep.set("artifact.decode_ms.corpus", finite(median(dCorpus)), "ms")
}
