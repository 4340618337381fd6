package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cuisines"
	"cuisines/internal/server"
)

// spanHeader carries the client-side span ID of a traced request, so
// the handler span recorded inside the daemon can name its parent.
const spanHeader = "X-Perfbench-Span"

// handlerTap wraps the daemon's handler; while a recorder is set it
// records a "server.handler" span per request under the client span
// named in spanHeader.
type handlerTap struct {
	next http.Handler
	mu   sync.RWMutex
	rec  *recorder
}

func (t *handlerTap) setRecorder(rec *recorder) {
	t.mu.Lock()
	t.rec = rec
	t.mu.Unlock()
}

func (t *handlerTap) recorder() *recorder {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rec
}

func (t *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.recorder()
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if rec == nil || err != nil {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	rec.add("server.handler", parent, parent, start, time.Now())
}

// tracedGetter records a client span ("client.<class>") around every
// request and passes its ID to the handler tap.
func tracedGetter(get getter, tap *handlerTap, class string) getter {
	return func(path string, hdr http.Header) (int, []byte, http.Header, error) {
		rec := tap.recorder()
		if rec == nil {
			return get(path, hdr)
		}
		h := http.Header{}
		for k, v := range hdr {
			h[k] = v
		}
		id := rec.begin("client."+class, 0, 0)
		h.Set(spanHeader, strconv.Itoa(id))
		code, body, rh, err := get(path, h)
		rec.end(id)
		return code, body, rh, err
	}
}

// issued is one variant request the variant caller made.
type issued struct {
	v      variant
	lat    float64 // ms
	digest string
	ok     bool
	traced bool
}

// timedHit is a hit sample and when, into the phase, it completed.
type timedHit struct {
	hitSample
	at time.Duration
}

// mixedPhase is what one phase of serve-mixed collected.
type mixedPhase struct {
	hits     hitTally
	variants []issued
	rejected int
	window   time.Duration
}

// secondsPerCycle is the nominal length of one variant cycle.
const secondsPerCycle = 4

// runMixed measures serve-mixed: one daemon at base scale 1 with
// default cache sizes, warmed in set-up, serving nproc-1 hit callers
// (at least one) and one variant caller concurrently.
func runMixed(cfg *config) (*report, error) {
	rep := newReport()
	opts := cuisines.Options{Seed: cfg.corpusSeed, Scale: 1}
	var (
		engine *cuisines.Engine
		srv    *server.Server
		lb     *loopback
		tap    *handlerTap
		runner = &tracedRunner{}
	)
	setup, err := timeSetup(func(int) error {
		if lb != nil {
			_ = lb.close()
		}
		engine = cuisines.NewEngine(cuisines.EngineConfig{})
		dc := daemonConfig(opts, engine)
		if cfg.trace {
			runner.next = engine.RunContext
			dc.Runner = runner.run
		}
		srv = server.New(dc)
		tap = &handlerTap{next: srv}
		var err error
		if lb, err = listen(tap); err != nil {
			return err
		}
		return srv.Warm(context.Background())
	})
	if err != nil {
		return nil, err
	}
	defer lb.close()
	// The reference renders the warmed analysis through an in-process
	// server: it shares the analysis with the daemon but none of its
	// render cache, transport or negotiation.
	ref, err := buildReference(engine, opts, false)
	if err != nil {
		return nil, err
	}
	rep.notes["reference_digest"] = ref.digest
	if cfg.seed == 0 && (!ref.claims.AllHold || len(ref.claims.Claims) != 8) {
		rep.problem("default corpus: %d claims, all_hold=%v; want 8 holding", len(ref.claims.Claims), ref.claims.AllHold)
	}
	hitters := max(1, cfg.procs-1)
	client := newClient(hitters + 1)
	defer client.CloseIdleConnections()
	get := clientGetter(client, lb.url)
	if d, _, err := digest(get, nil, "", nil); err != nil || d != ref.digest {
		rep.problem("daemon base digest %s (%v), want %s", d, err, ref.digest)
	}
	if _, bad := warmPaths(get, nil, ref); bad > 0 {
		rep.problem("%d hit paths answered wrong while warming", bad)
	}

	seq := variantSequence(cfg.seed, cfg.corpusSeed, 64)
	pos := 0
	hitIdx := make([]int, hitters)
	for i := range hitIdx {
		hitIdx[i] = i * 7 // callers start at different points of the mix
	}
	// phase runs the callers while the variant caller walks the given
	// number of whole cycles, so every run of a workload does the same
	// work, holds the same analyses and sees the same contention.
	phase := func(cycles int, traced bool) *mixedPhase {
		p := &mixedPhase{}
		runtime.GC()
		start := time.Now()
		var stop atomic.Bool
		var wg sync.WaitGroup
		samples := make([][]timedHit, hitters)
		for c := 0; c < hitters; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				hg := tracedGetter(get, tap, "hit")
				for !stop.Load() {
					s := hit(hg, nil, ref, hitIdx[c])
					samples[c] = append(samples[c], timedHit{s, time.Since(start)})
					hitIdx[c]++
				}
			}(c)
		}
		vg := tracedGetter(get, tap, "variant")
		for pos < len(seq) {
			v := seq[pos]
			pos++
			t0 := time.Now()
			code, body, _, err := vg("/v1/table"+v.query, nil)
			lat := time.Since(t0)
			is := issued{v: v, lat: ms(lat), traced: traced}
			switch {
			case err == nil && code == http.StatusOK:
				is.digest, _, err = digest(get, nil, v.query, body)
				is.ok = err == nil
			case code == http.StatusTooManyRequests:
				p.rejected++
			}
			p.variants = append(p.variants, is)
			if v.last {
				if cycles--; cycles == 0 {
					break
				}
			}
		}
		stop.Store(true)
		wg.Wait()
		p.window = time.Since(start)
		for _, ss := range samples {
			for _, s := range ss {
				p.hits.add(s.hitSample, int(s.at/time.Second))
			}
		}
		// Each one-second group's rate is over wall time; the last group
		// ends with the window.
		for i, g := range p.hits.groups {
			span := min(time.Second, p.window-time.Duration(i)*time.Second)
			p.hits.rates = append(p.hits.rates, float64(len(g))/span.Seconds())
		}
		return p
	}

	// Warm-up: a short hit-only burst, dropped.
	warmEnd := time.Now().Add(500 * time.Millisecond)
	for i := 0; time.Now().Before(warmEnd); i++ {
		hit(get, nil, ref, i)
	}
	statsBefore, stagesBefore := srv.CacheStats(), engine.CacheStats()
	rt := startRuntime()
	// A cycle takes about four seconds on two vCPUs, so a run measures
	// seconds/4 whole cycles, rounded, at least one; a traced run splits
	// them between its untraced and traced halves.
	cycles := max(1, (cfg.seconds+secondsPerCycle/2)/secondsPerCycle)
	if cfg.trace {
		cycles = max(1, cycles/2)
	}
	phasesRun := []*mixedPhase{phase(cycles, false)}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		tap.setRecorder(rec)
		runner.setRecorder(rec)
		phasesRun = append(phasesRun, phase(cycles, true))
		tap.setRecorder(nil)
		runner.setRecorder(nil)
	}
	statsAfter, stagesAfter := srv.CacheStats(), engine.CacheStats()

	var all []issued
	var hits hitTally
	rejected := 0
	for _, p := range phasesRun {
		all = append(all, p.variants...)
		hits.merge(&p.hits)
		rejected += p.rejected
	}
	rt.stop(rep, hits.n+len(all))
	heap := liveHeapMB()
	if err := checkVariants(opts, all); err != nil {
		return nil, err
	}
	runtime.KeepAlive(srv)

	var seedLat, varLat, tracedSeed []float64
	for _, is := range all {
		rep.attempted++
		if !is.ok {
			rep.failed++
			continue
		}
		switch {
		case is.traced && is.v.class == "seed":
			tracedSeed = append(tracedSeed, is.lat)
		case is.traced:
		case is.v.class == "seed":
			seedLat = append(seedLat, is.lat)
			varLat = append(varLat, is.lat)
		default:
			varLat = append(varLat, is.lat)
		}
	}
	// Operations are the variant requests; a wrong hit answer is not an
	// operation of its own but still fails the run.
	rep.notes["hit_requests"], rep.notes["hit_failed"] = hits.n, hits.failed
	if hits.failed > 0 {
		rep.problem("%d of %d hit requests answered wrong", hits.failed, hits.n)
	}
	first := phasesRun[0]
	reportE2E(rep, setup, seedLat, varLat, &first.hits, heap)
	rep.notes["window_s"] = first.window.Seconds()
	rep.notes["variants_issued"] = len(all)
	if !cfg.trace {
		return rep, nil
	}

	spans := rec.snapshot()
	rep.spans = spans
	var handler, transport []float64
	handlerDur := map[int]int64{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handlerDur[s.Parent] = s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Name != "client.hit" {
			continue
		}
		if h, ok := handlerDur[s.ID]; ok {
			handler = append(handler, float64(h)/1e6)
			transport = append(transport, float64(s.End-s.Start-h)/1e6)
		}
	}
	rep.set("server.handler_p50_ms", finite(median(handler)), "ms")
	tail, _ := tailPercentile(handler)
	rep.set("server.handler_p99_ms", finite(tail), "ms")
	rep.set("server.transport_p50_ms", finite(median(transport)), "ms")
	rep.set("server.run_ms", finite(median(spanDurMS(spans, "server.run"))), "ms")
	rep.samples["server.handler"] = len(handler)
	rep.samples["server.run"] = len(spanDurMS(spans, "server.run"))

	a0, a1 := statsBefore.Analyses, statsAfter.Analyses
	rep.set("server.analysis_hits", float64(a1.Hits-a0.Hits), "count")
	rep.set("server.analysis_misses", float64(a1.Misses-a0.Misses), "count")
	rep.set("server.analysis_evictions", float64(a1.Evictions-a0.Evictions), "count")
	rep.set("server.analysis_joins", float64(a1.InFlightJoins-a0.InFlightJoins), "count")
	rep.set("server.analysis_hit_ratio", finite(float64(a1.Hits-a0.Hits)/float64(a1.Hits-a0.Hits+a1.Misses-a0.Misses)), "ratio")
	rep.set("server.rejected_429", float64(rejected), "count")

	r0, r1 := statsBefore.Renders, statsAfter.Renders
	setRenderLayers(rep, cuisines.RenderCacheStats{
		Hits: r1.Hits - r0.Hits, Misses: r1.Misses - r0.Misses, Evictions: r1.Evictions - r0.Evictions,
		Bytes: r1.Bytes, GzipVariants: r1.GzipVariants - r0.GzipVariants, NotModified: r1.NotModified - r0.NotModified,
	}, 1)

	delta := stageTotals(stagesAfter)
	for k, v := range stageTotals(stagesBefore) {
		delta[k] -= v
	}
	setArtifactLayers(rep, delta, float64(max(len(all), 1)))
	// Both halves issue the same daemon requests; the traced half adds
	// the handler tap and the runner spans.
	setTraceCost(rep, seedLat, tracedSeed, 1)
	return rep, nil
}

// checkVariants recomputes every distinct variant the run issued on a
// fresh reference engine, in issue order, and marks an issued request
// failed when its digest differs.
func checkVariants(base cuisines.Options, all []issued) error {
	refEngine := cuisines.NewEngine(cuisines.EngineConfig{})
	get := handlerGetter(server.New(server.Config{Base: base, Engine: refEngine, MaxConcurrentRuns: -1}))
	want := map[string]string{}
	for i := range all {
		is := &all[i]
		w, ok := want[is.v.query]
		if !ok {
			var err error
			if w, _, err = digest(get, nil, is.v.query, nil); err != nil {
				return fmt.Errorf("reference for variant %s: %w", is.v.query, err)
			}
			want[is.v.query] = w
		}
		if is.digest != w {
			is.ok = false
		}
	}
	return nil
}

// tracedRunner is the daemon's Config.Runner in a traced run: it times
// each pipeline run the analysis cache admits as a "server.run" span.
type tracedRunner struct {
	next server.Runner
	mu   sync.RWMutex
	rec  *recorder
}

func (t *tracedRunner) setRecorder(rec *recorder) {
	t.mu.Lock()
	t.rec = rec
	t.mu.Unlock()
}

func (t *tracedRunner) run(ctx context.Context, opts cuisines.Options) (*cuisines.Analysis, error) {
	t.mu.RLock()
	rec := t.rec
	t.mu.RUnlock()
	id := rec.begin("server.run", 0, 0)
	defer rec.end(id)
	return t.next(ctx, opts)
}
