package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cuisines"
	"cuisines/internal/server"
)

// getter issues one GET and returns the status, the body exactly as
// it came off the wire, and the response headers.
type getter func(path string, hdr http.Header) (int, []byte, http.Header, error)

// handlerGetter serves requests in-process — the reference path, which
// shares nothing with the loopback transport under test.
func handlerGetter(h http.Handler) getter {
	return func(path string, hdr http.Header) (int, []byte, http.Header, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		for k, v := range hdr {
			req.Header[k] = v
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), rec.Header(), nil
	}
}

// clientGetter issues requests over a real connection to base.
func clientGetter(c *http.Client, base string) getter {
	return func(path string, hdr http.Header) (int, []byte, http.Header, error) {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			return 0, nil, nil, err
		}
		for k, v := range hdr {
			req.Header[k] = v
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header, err
	}
}

// newClient returns a client holding at most conns keep-alive
// connections. Compression is negotiated by hand so wire bytes can be
// counted and gzip bodies checked.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// hopHeader pins a request to the node it is sent to (no proxy hop).
func hopHeader() http.Header { return http.Header{server.HopHeader: {"1"}} }

// daemonConfig is server.Config as cmd/cuisined builds it with its
// flag defaults. The access log is kept but discarded, so its cost is
// paid without flooding standard output.
func daemonConfig(base cuisines.Options, engine *cuisines.Engine) server.Config {
	return server.Config{
		Base:       base,
		CacheSize:  server.DefaultCacheSize,
		Engine:     engine,
		RetryAfter: server.DefaultRetryAfter,
		AccessLog:  log.New(io.Discard, "", 0),
	}
}

// loopback is an HTTP server on 127.0.0.1 with cmd/cuisined's timeouts.
type loopback struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		url: "http://" + ln.Addr().String(),
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, nil
}

// close shuts the server down and waits for its serve loop to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// swapHandler forwards to whichever handler was set last, so one
// loopback listener can serve a fresh server per operation.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// figures are the five trees whose Newick strings enter the digest.
var figures = []string{"fig2-euclidean", "fig3-cosine", "fig4-jaccard", "fig5-authenticity", "fig6-geographic"}

// digest fetches one analysis's /v1/table, its five Newick strings and
// its claims (query selects the analysis; empty means the server's
// base options) and hashes them, length-prefixed, into one hex string.
// table is the /v1/table response if the caller already holds it.
func digest(get getter, hdr http.Header, query string, table []byte) (string, claimsSummary, error) {
	h := sha256.New()
	part := func(b []byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	fetch := func(path string) ([]byte, error) {
		code, body, _, err := get(path+query, hdr)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET %s%s: status %d", path, query, code)
		}
		return body, nil
	}
	var err error
	if table == nil {
		if table, err = fetch("/v1/table"); err != nil {
			return "", claimsSummary{}, err
		}
	}
	part(table)
	for _, f := range figures {
		nw, err := fetch("/v1/newick/" + f)
		if err != nil {
			return "", claimsSummary{}, err
		}
		part(nw)
	}
	claims, err := fetch("/v1/claims")
	if err != nil {
		return "", claimsSummary{}, err
	}
	part(claims)
	var cs claimsSummary
	if err := json.Unmarshal(claims, &cs); err != nil {
		return "", claimsSummary{}, fmt.Errorf("claims: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), cs, nil
}

// claimsSummary is the part of /v1/claims the gate reads.
type claimsSummary struct {
	Claims  []json.RawMessage `json:"claims"`
	AllHold bool              `json:"all_hold"`
}

// refBody is the expected response for one hit path.
type refBody struct {
	sum  [32]byte
	etag string
}

// reference holds everything an operation is checked against: the
// base digest, the digest of each linkage-only variant, and the body
// and ETag of every path in the hit mix. It is built once per seed in
// set-up from a cold engine, through an in-process server.
type reference struct {
	digest  string
	claims  claimsSummary
	linkage map[string]string
	bodies  map[string]refBody
	mix     *hitMix
}

// linkages are the non-default linkage methods: the linkage-only
// variants, each of which recomputes only the tree and validate stages.
var linkages = []string{"complete", "single", "ward", "weighted"}

// buildReference renders the reference from engine (which must already
// hold the analysis for base, or compute it) via an in-process server.
// withVariants also computes the linkage-only variants on engine.
func buildReference(engine *cuisines.Engine, base cuisines.Options, withVariants bool) (*reference, error) {
	srv := server.New(server.Config{Base: base, Engine: engine, MaxConcurrentRuns: -1})
	get := handlerGetter(srv)
	ref := &reference{linkage: map[string]string{}, bodies: map[string]refBody{}}
	var err error
	if ref.digest, ref.claims, err = digest(get, nil, "", nil); err != nil {
		return nil, err
	}
	if withVariants {
		for _, l := range linkages {
			if ref.linkage[l], _, err = digest(get, nil, "?linkage="+l, nil); err != nil {
				return nil, err
			}
		}
	}
	code, body, _, err := get("/v1/table", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("reference /v1/table: status %d: %v", code, err)
	}
	var table cuisines.TableResponse
	if err := json.Unmarshal(body, &table); err != nil {
		return nil, fmt.Errorf("reference /v1/table: %w", err)
	}
	var regions []string
	for _, r := range table.Rows {
		regions = append(regions, r.Region)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("reference /v1/table: no regions")
	}
	ref.mix = newHitMix(regions)
	for _, p := range ref.mix.paths() {
		if volatile(p) {
			continue
		}
		code, body, hdr, err := get(p, nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("reference %s: status %d: %v", p, code, err)
		}
		ref.bodies[p] = refBody{sum: sha256.Sum256(body), etag: hdr.Get("ETag")}
	}
	return ref, nil
}

// volatile paths answer with live counters, so only their status and
// JSON shape can be checked.
func volatile(path string) bool { return path == "/healthz" || path == "/v1/cachestats" }

// hitMix is cmd/loadgen's default endpoint mix
// (table:4,stats:2,fingerprint:2,patterns:1,closest:1,newick:1,
// cachestats:1,healthz:1) in loadgen's smooth weighted round-robin
// order; region-cycling endpoints walk the region list.
type hitMix struct {
	regions []string
	order   []int // endpoint index per slot of one round
}

type mixEndpoint struct {
	weight int
	path   func(regions []string, i int) string
}

var mixEndpoints = []mixEndpoint{
	{4, fixedPath("/v1/table")},
	{2, fixedPath("/v1/stats")},
	{2, func(rs []string, i int) string { return "/v1/fingerprint/" + url.PathEscape(rs[i%len(rs)]) }},
	{1, func(rs []string, i int) string { return "/v1/patterns/" + url.PathEscape(rs[i%len(rs)]) }},
	{1, func(rs []string, i int) string {
		return "/v1/closest/fig6-geographic?region=" + url.QueryEscape(rs[i%len(rs)])
	}},
	{1, fixedPath("/v1/newick/fig5-authenticity")},
	{1, fixedPath("/v1/cachestats")},
	{1, fixedPath("/healthz")},
}

func fixedPath(p string) func([]string, int) string { return func([]string, int) string { return p } }

func newHitMix(regions []string) *hitMix {
	m := &hitMix{regions: regions}
	total := 0
	current := make([]int, len(mixEndpoints))
	for _, e := range mixEndpoints {
		total += e.weight
	}
	for n := 0; n < total; n++ {
		best := 0
		for i, e := range mixEndpoints {
			current[i] += e.weight
			if current[i] > current[best] {
				best = i
			}
		}
		current[best] -= total
		m.order = append(m.order, best)
	}
	return m
}

// path returns the i-th request path of the mix.
func (m *hitMix) path(i int) string {
	ep, k := m.slot(i)
	return mixEndpoints[ep].path(m.regions, k)
}

// slot returns the endpoint of the i-th request of the mix and how many
// requests to that endpoint came before it.
func (m *hitMix) slot(i int) (ep, k int) {
	round, slot := i/len(m.order), i%len(m.order)
	ep = m.order[slot]
	seen := 0 // earlier slots of this endpoint within the round
	for _, e := range m.order[:slot] {
		if e == ep {
			seen++
		}
	}
	return ep, round*mixEndpoints[ep].weight + seen
}

// paths lists every distinct path the mix issues.
func (m *hitMix) paths() []string {
	seen := map[string]bool{}
	var out []string
	n := len(m.order) * len(m.regions)
	for i := 0; i < n; i++ {
		if p := m.path(i); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Hit requests have the shape the repository's load smoke and
// BENCH_10.json drive, `loadgen -gzip -revalidate 0.5`: every request
// asks for gzip, and each endpoint's requests carry If-None-Match at
// the fraction revalidate, placed by loadgen's deterministic carry.
const revalidate = 0.5

// revalidates reports whether an endpoint's k-th request is
// conditional: loadgen adds revalidate to a per-endpoint carry before
// each request and revalidates whenever the carry reaches 1.
func revalidates(k int) bool {
	return int(float64(k+1)*revalidate) > int(float64(k)*revalidate)
}

// hitSample is one hit request as the caller saw it.
type hitSample struct {
	latency time.Duration
	bytes   int
	ok      bool
}

// hit issues the i-th request of the mix, gzip-negotiated, and
// conditional when its endpoint's carry says so.
func hit(get getter, extra http.Header, ref *reference, i int) hitSample {
	_, k := ref.mix.slot(i)
	return request(get, extra, ref, ref.mix.path(i), true, revalidates(k))
}

// request issues one GET of a mix path and checks the answer against
// the reference: the body (decompressed when gzip) and ETag must match,
// a 304 must answer a conditional request, and volatile paths must
// return 200 with valid JSON. Volatile paths are never sent
// conditionally: their validator changes with every answer.
func request(get getter, extra http.Header, ref *reference, p string, gz, conditional bool) hitSample {
	hdr := http.Header{}
	for k, v := range extra {
		hdr[k] = v
	}
	rb, stable := ref.bodies[p]
	conditional = conditional && stable
	if gz {
		hdr.Set("Accept-Encoding", "gzip")
	}
	if conditional {
		hdr.Set("If-None-Match", rb.etag)
	}
	start := time.Now()
	code, body, rh, err := get(p, hdr)
	s := hitSample{latency: time.Since(start), bytes: len(body)}
	if err != nil {
		return s
	}
	switch {
	case !stable:
		s.ok = code == http.StatusOK && json.Valid(body)
	case code == http.StatusNotModified:
		s.ok = conditional && len(body) == 0 && rh.Get("ETag") == rb.etag
	case code == http.StatusOK:
		plain := body
		if rh.Get("Content-Encoding") == "gzip" {
			plain, err = gunzip(body)
			if err != nil {
				return s
			}
		}
		s.ok = !conditional && sha256.Sum256(plain) == rb.sum && rh.Get("ETag") == rb.etag
	}
	return s
}

func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// warmPaths requests every distinct path of the mix once, with gzip
// as the hits ask for it, so the render cache holds every body and its
// gzip variant and later requests are hits. It returns how many
// requests it made and how many answers did not match the reference.
func warmPaths(get getter, extra http.Header, ref *reference) (attempts, bad int) {
	for _, p := range ref.mix.paths() {
		attempts++
		if !request(get, extra, ref, p, true, false).ok {
			bad++
		}
	}
	return attempts, bad
}

// hitTally aggregates hit samples. Hits are also kept in groups — a
// thousand consecutive hits of a serve check, or one second of
// serve-mixed — and the tail latency is the median over groups of each
// group's tail; throughput is the median of short-window rates. One
// stalled burst then moves either figure less than it moves the same
// figure over the pooled samples.
type hitTally struct {
	lat    []float64   // ms, successful hits only
	groups [][]float64 // the same latencies, grouped
	rates  []float64   // hits per second, one per window
	bytes  int
	n      int
	failed int
}

// add records s in group g (groups grow as needed).
func (t *hitTally) add(s hitSample, g int) {
	t.n++
	for len(t.groups) <= g {
		t.groups = append(t.groups, nil)
	}
	if !s.ok {
		t.failed++
		return
	}
	t.lat = append(t.lat, ms(s.latency))
	t.groups[g] = append(t.groups[g], ms(s.latency))
	t.bytes += s.bytes
}

func (t *hitTally) merge(o *hitTally) {
	t.lat = append(t.lat, o.lat...)
	t.groups = append(t.groups, o.groups...)
	t.rates = append(t.rates, o.rates...)
	t.bytes += o.bytes
	t.n += o.n
	t.failed += o.failed
}

// tail is the median over groups of each group's tailPercentile, and
// the median percentile that stands for.
func (t *hitTally) tail() (value, pct float64) {
	var vs, ps []float64
	for _, g := range t.groups {
		if len(g) > 10 {
			v, p := tailPercentile(g)
			vs, ps = append(vs, v), append(ps, p)
		}
	}
	if len(vs) == 0 {
		return tailPercentile(t.lat)
	}
	return median(vs), median(ps)
}

// serveResult is what one serve check measured.
type serveResult struct {
	variants []float64 // ms, the mean over one check's variant requests
	hits     hitTally
	attempts int
	failed   int
}

// hitsPerOp is how many timed hits each serve check issues, in groups
// of hitsPerGroup; a group of 1000 has the ten samples beyond its p99
// that the percentile rule asks for.
// Throughput is taken over windows of hitsPerWindow hits.
const (
	hitsPerOp     = 2000
	hitsPerGroup  = 1000
	hitsPerWindow = 100
)

// serveCheck serves a freshly built analysis the way a user would
// reach it: the digest requests, the linkage-only variants, then a
// warm-up pass over the hit mix (dropped) and hitsPerOp timed hits.
// It returns the variant latencies and the hit tally, and how many
// requests were wrong.
func serveCheck(get getter, extra http.Header, ref *reference, order []string, table []byte) serveResult {
	var res serveResult
	// A GC before each timed request or burst, so none is billed for
	// the operation's garbage.
	runtime.GC()
	res.attempts++
	if d, _, err := digest(get, extra, "", table); err != nil || d != ref.digest {
		res.failed++
	}
	var variants []float64
	for _, l := range order {
		res.attempts++
		q := "?linkage=" + l
		runtime.GC()
		start := time.Now()
		code, body, _, err := get("/v1/table"+q, extra)
		lat := time.Since(start)
		if err != nil || code != http.StatusOK {
			res.failed++
			continue
		}
		if d, _, err := digest(get, extra, q, body); err != nil || d != ref.linkage[l] {
			res.failed++
			continue
		}
		variants = append(variants, ms(lat))
	}
	// One figure per serve check, the mean of its variant requests:
	// single requests of a few milliseconds swing too much to compare.
	if len(variants) > 0 {
		res.variants = append(res.variants, sum(variants)/float64(len(variants)))
	}
	n, bad := warmPaths(get, extra, ref)
	res.attempts += n
	res.failed += bad
	// Also hand freed memory back to the OS now, so the background
	// scavenger is not doing it during the burst.
	debug.FreeOSMemory()
	var window time.Duration
	for i := 0; i < hitsPerOp; i++ {
		s := hit(get, extra, ref, i)
		res.hits.add(s, i/hitsPerGroup)
		// One caller in a closed loop: a window's rate is its hit count
		// over its summed latency.
		if window += s.latency; (i+1)%hitsPerWindow == 0 {
			res.hits.rates = append(res.hits.rates, hitsPerWindow/window.Seconds())
			window = 0
		}
	}
	res.attempts += res.hits.n
	res.failed += res.hits.failed
	return res
}
