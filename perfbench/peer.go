package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"cuisines"
	"cuisines/internal/cluster"
	"cuisines/internal/pipeline"
	"cuisines/internal/server"
)

// node is one in-process cuisined: engine, cluster membership and
// server, on a loopback listener, as cmd/cuisined assembles them.
type node struct {
	engine *cuisines.Engine
	member *cluster.Node
	srv    *server.Server
	lb     *loopback
	stop   context.CancelFunc
	health sync.WaitGroup
}

// startNode boots a memory-only node peering with peers. wrap, when
// non-nil, wraps the node's handler. runHealth starts the health loop
// cmd/cuisined runs beside every clustered server.
func startNode(base cuisines.Options, peers []string, wrap func(http.Handler) http.Handler, runHealth bool) (*node, error) {
	sw := &swapHandler{h: http.NotFoundHandler()}
	lb, err := listen(sw)
	if err != nil {
		return nil, err
	}
	n := &node{engine: cuisines.NewEngine(cuisines.EngineConfig{}), lb: lb}
	n.member, err = cluster.New(cluster.Config{
		Self:          lb.url,
		Peers:         peers,
		Store:         n.engine.ArtifactStore(),
		Codecs:        pipeline.Codecs(),
		Now:           time.Now,
		ProbeInterval: cluster.DefaultProbeInterval,
		ProbeTimeout:  cluster.DefaultProbeTimeout,
		FetchTimeout:  cluster.DefaultFetchTimeout,
	})
	if err != nil {
		_ = lb.close()
		return nil, err
	}
	cfg := daemonConfig(base, n.engine)
	cfg.Cluster = n.member
	n.srv = server.New(cfg)
	var h http.Handler = n.srv
	if wrap != nil {
		h = wrap(h)
	}
	sw.set(h)
	ctx, cancel := context.WithCancel(context.Background())
	n.stop = cancel
	if runHealth {
		n.health.Add(1)
		go func() {
			defer n.health.Done()
			n.member.Run(ctx)
		}()
	}
	return n, nil
}

// close stops the health loop and the listener and waits for both.
func (n *node) close() {
	n.stop()
	n.health.Wait()
	_ = n.lb.close()
}

// artifactTap wraps node A's handler. While a recorder is set it times
// every peer artifact request as a "cluster.serve" span under the
// current operation, counts the bytes written and keeps a copy of each
// frame for the read-side replay.
type artifactTap struct {
	next http.Handler

	mu     sync.Mutex
	rec    *recorder
	req    int
	parent int
	bytes  int64
	frames []tappedFrame
}

type tappedFrame struct {
	kind string
	data []byte
}

func (t *artifactTap) arm(rec *recorder, req, parent int) {
	t.mu.Lock()
	t.rec, t.req, t.parent, t.bytes, t.frames = rec, req, parent, 0, nil
	t.mu.Unlock()
}

func (t *artifactTap) disarm() (int64, []tappedFrame) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, f := t.bytes, t.frames
	t.rec, t.bytes, t.frames = nil, 0, nil
	return b, f
}

func (t *artifactTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.mu.Lock()
	rec, req, parent := t.rec, t.req, t.parent
	t.mu.Unlock()
	if rec == nil || !strings.HasPrefix(r.URL.Path, cluster.ArtifactPathPrefix) {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	cw := &captureWriter{ResponseWriter: w}
	t.next.ServeHTTP(cw, r)
	rec.add("cluster.serve", parent, req, start, time.Now())
	kind, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, cluster.ArtifactPathPrefix), "/")
	t.mu.Lock()
	t.bytes += int64(len(cw.buf))
	if cw.code == 0 || cw.code == http.StatusOK {
		t.frames = append(t.frames, tappedFrame{kind: kind, data: cw.buf})
	}
	t.mu.Unlock()
}

// captureWriter keeps a copy of the body written through it.
type captureWriter struct {
	http.ResponseWriter
	code int
	buf  []byte
}

func (c *captureWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf = append(c.buf, b...)
	return c.ResponseWriter.Write(b)
}

// runPeer measures peer-warm: set-up warms node A; each operation
// boots a fresh memory-only node B peering with A and times one
// GET /v1/table on B, which must resolve every stage from A.
func runPeer(cfg *config) (*report, error) {
	b := newAnalysisBench(cfg)
	var a *node
	tap := &artifactTap{}
	setup, err := timeSetup(func(int) error {
		if a != nil {
			a.close()
		}
		var err error
		a, err = startNode(b.opts, nil, func(h http.Handler) http.Handler { tap.next = h; return tap }, false)
		if err != nil {
			return err
		}
		if err := a.srv.Warm(context.Background()); err != nil {
			return err
		}
		ref, err := buildReference(a.engine, b.opts, true)
		if err != nil {
			return err
		}
		b.setReference(ref)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer a.close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	var keep *node
	var wireBytes []float64
	op := func(req int) (time.Duration, bool) {
		bn, err := startNode(b.opts, []string{a.lb.url}, nil, true)
		if err != nil {
			return 0, false
		}
		defer bn.close()
		get := clientGetter(client, bn.lb.url)
		var root int
		if b.rec != nil {
			root = b.rec.begin("op.peer", 0, req)
			tap.arm(b.rec, req, root)
		}
		start := time.Now()
		code, table, _, err := get("/v1/table", hopHeader())
		d := time.Since(start)
		b.rec.end(root)
		if b.rec != nil {
			bytes, frames := tap.disarm()
			wireBytes = append(wireBytes, float64(bytes))
			codecs := pipeline.Codecs()
			for _, f := range frames {
				if err := replayFrame(b.rec, req, 0, codecs[f.kind], f.data); err != nil {
					b.rep.problem("peer frame %s: %v", f.kind, err)
				}
			}
		}
		if err != nil || code != http.StatusOK {
			return d, false
		}
		stats := bn.engine.CacheStats()
		m := bn.member.Metrics()
		b.stages["fetch_attempts"] += m.FetchAttempts
		b.stages["fetch_hits"] += m.FetchHits
		b.stages["fetch_errors"] += m.FetchErrors
		b.stages["fetch_rejects"] += m.FetchRejects
		computed := totalStat(stats, func(s cuisines.StageCacheStats) uint64 { return s.Computed })
		sr := serveCheck(get, hopHeader(), b.ref, linkages, table)
		b.account(stats, sr, bn.srv)
		keep = bn
		// Path gate: every stage must come from A, verified.
		return d, computed == 0 && m.FetchRejects == 0 && sr.failed == 0
	}
	// The traced call is the operation itself, with node A's handler
	// tapped: the overhead compares op with op.
	rt := b.measure(true, op, op, nil)
	rep := b.finish(setup, rt, keep, a)
	if cfg.trace {
		n := float64(max(b.stageOps, 1))
		for _, k := range []string{"fetch_attempts", "fetch_hits", "fetch_errors", "fetch_rejects"} {
			rep.set("cluster."+k, float64(b.stages[k])/n, "count")
		}
		self := selfTimes(rep.spans)
		rep.set("cluster.serve_ms", finite(median(layerSelfMS(rep.spans, self, "cluster.serve", b.tracedOp))), "ms")
		rep.set("cluster.wire_bytes", finite(median(wireBytes)), "bytes")
		setReadLayers(rep, b.tracedOp, "")
	}
	return rep, nil
}
