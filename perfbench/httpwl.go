package main

// wide-http and serve-mixed: the internal/server handler with tsserve's
// default configuration, on a loopback listener in this process.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twinsearch"
	"twinsearch/internal/core"
	"twinsearch/internal/series"
	"twinsearch/internal/server"
)

// reqHeader carries a traced request's id to the handler wrapper.
const reqHeader = "X-Perfbench-Req"

type httpEnv struct {
	ds     *dataSet
	eng    *twinsearch.Engine
	h      http.Handler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	mixed  bool // serve-mixed rather than wide-http

	inflight sync.Map // traced request id → *reqTrace

	// serve-mixed: a pool of sampled queries drawn with Zipf skew, and
	// an append every appendEvery requests.
	draws    atomic.Int64
	poolOnce sync.Once
	pool     [][]float64
	cdf      []float64

	// serve-mixed appends run one at a time, in order.
	appendMu sync.Mutex
	started  atomic.Int64 // appends begun
	done     atomic.Int64 // appends answered
	appended atomic.Int64 // points appended

	shards *shardReplay // wide-http traced replays
}

// tsserveOptions is tsserve's default engine configuration.
func tsserveOptions(ds *dataSet, shards int) twinsearch.Options {
	return twinsearch.Options{L: ds.l, Shards: shards, PlanCache: -1, ResultCacheBytes: -1,
		SlowLogSize: 128, SlowLogThreshold: 100 * time.Millisecond}
}

func openWide(ds *dataSet, cfg config) (env, error) { return openHTTP(ds, cfg, 4, false) }

func openMixed(ds *dataSet, cfg config) (env, error) { return openHTTP(ds, cfg, 0, true) }

func openHTTP(ds *dataSet, cfg config, shards int, mixed bool) (env, error) {
	eng, err := twinsearch.Open(ds.series, tsserveOptions(ds, shards))
	if err != nil {
		return nil, err
	}
	e := &httpEnv{ds: ds, eng: eng, mixed: mixed, served: make(chan error, 1)}
	e.h = server.NewWithConfig(eng, server.Config{MaxQueue: 64, RetryAfter: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: e, ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: maxClients, MaxConnsPerHost: maxClients, DisableCompression: true,
	}}
	if err := e.ready(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// ready waits for the listener to answer /healthz.
func (e *httpEnv) ready() error {
	resp, err := e.client.Get(e.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// ServeHTTP wraps the server's handler: for a traced request it records
// the handler's span.
func (e *httpEnv) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(reqHeader)
	if id == "" {
		e.h.ServeHTTP(w, r)
		return
	}
	v, _ := e.inflight.Load(id)
	rt, _ := v.(*reqTrace)
	t0 := time.Now()
	e.h.ServeHTTP(w, r)
	rt.add("server", "client", t0, time.Now(), false)
}

func (e *httpEnv) next(rng *rand.Rand) op {
	if !e.mixed {
		// Every query is distinct: the stream never repeats a start.
		return op{kind: kindRange, q: e.ds.query(l), eps: wideEps}
	}
	e.poolOnce.Do(e.buildPool)
	// Appends come at a fixed spacing rather than at random: each one
	// stalls the connections while the next search re-freezes the tree,
	// and random spacing made the tail depend on how appends happened to
	// bunch up.
	if e.draws.Add(1)%appendEvery == 0 {
		return op{kind: kindAppend}
	}
	q := e.pool[sort.SearchFloat64s(e.cdf, rng.Float64()*e.cdf[len(e.cdf)-1])]
	if rng.Float64() < 0.7 {
		return op{kind: kindRange, q: q, eps: mixedEps}
	}
	return op{kind: kindTopK, q: q, k: topK}
}

// buildPool samples serve-mixed's query pool and its Zipf popularity.
// Like the series, the pool is part of the workload's fixed corpus:
// which queries are hot decides the hit ratio and the cost of a miss, so
// a pool drawn per seed would make the medians depend on the seed. The
// seed draws the request stream over it.
func (e *httpEnv) buildPool() {
	rng := rand.New(rand.NewSource(dataSeed))
	var sum float64
	for i := 0; i < poolSize; i++ {
		p := rng.Intn(len(e.ds.series) - l + 1)
		e.pool = append(e.pool, e.ds.series[p:p+l])
		sum += math.Pow(float64(i+1), -zipfS)
		e.cdf = append(e.cdf, sum)
	}
}

type matchJSON struct {
	Start int      `json:"start"`
	Dist  *float64 `json:"dist"`
}

type searchJSON struct {
	Count   int         `json:"count"`
	Matches []matchJSON `json:"matches"`
}

// post sends one request and returns its body. The request is timed to
// the last byte of the response; decoding the JSON is the client's work,
// not the server's, and is left to the correctness gate, which decodes
// only the answers it checks. Traced requests carry their id so the
// handler wrapper can record the server span.
func (e *httpEnv) post(path string, payload any, rt *reqTrace) ([]byte, error) {
	t0 := time.Now()
	buf, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	if rt != nil {
		id := strconv.FormatUint(rt.id, 10)
		req.Header.Set(reqHeader, id)
		e.inflight.Store(id, rt)
		defer e.inflight.Delete(id)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, errShed
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	rt.add("client", "", t0, time.Now(), false)
	if rt != nil && path != "/append" {
		var head struct {
			Count int `json:"count"`
		}
		// Decode scans the whole body even though only the count is
		// kept; it runs after the request's span has ended.
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&head); err == nil {
			rt.count("server.matches", float64(head.Count))
		}
		rt.count("server.resp_bytes", float64(len(body)))
	}
	return body, nil
}

// decodeMatches decodes a /search or /topk response body.
func decodeMatches(body []byte) ([]series.Match, error) {
	var sr searchJSON
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	ms := make([]series.Match, len(sr.Matches))
	for i, m := range sr.Matches {
		ms[i] = series.Match{Start: m.Start, Dist: -1}
		if m.Dist != nil {
			ms[i].Dist = *m.Dist
		}
	}
	return ms, nil
}

func (e *httpEnv) do(o op, rt *reqTrace) (answer, error) {
	if o.kind == kindAppend {
		return answer{}, e.doAppend(rt)
	}
	s0, c0 := e.started.Load(), e.done.Load()
	n := len(e.ds.series) + int(e.appended.Load())
	var ans answer
	var err error
	switch o.kind {
	case kindRange:
		ans.body, err = e.post("/search", map[string]any{"query": o.q, "eps": o.eps}, rt)
	case kindTopK:
		ans.body, err = e.post("/topk", map[string]any{"query": o.q, "k": o.k}, rt)
	default:
		err = fmt.Errorf("no %s requests over HTTP", o.kind)
	}
	if err != nil {
		return ans, err
	}
	// The answer reflects a known series only if no append ran while
	// the request was in flight.
	if s0 == c0 && e.started.Load() == s0 {
		ans.seriesLen = n
	}
	if rt != nil && !e.mixed {
		e.replay(o, rt)
	}
	return ans, nil
}

// doAppend appends the next points of the generated series. Appends are
// serialized so the server and the oracle's mirror grow identically.
func (e *httpEnv) doAppend(rt *reqTrace) error {
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	at := int(e.appended.Load())
	if at+appendPoints > len(e.ds.extra) {
		return fmt.Errorf("append: generated points exhausted after %d", at)
	}
	vals := e.ds.extra[at : at+appendPoints]
	e.started.Add(1)
	if _, err := e.post("/append", map[string]any{"values": vals}, rt); err != nil {
		// The series is now unknown: started stays ahead of done, so
		// no later answer is checked against the mirror.
		return err
	}
	e.appended.Add(appendPoints)
	e.done.Add(1)
	return nil
}

// replay runs a wide-http search again through the engine and then
// through the layers below it, on the traced run's replica shards.
func (e *httpEnv) replay(o op, rt *reqTrace) {
	rt.timed("engine", "server", false, func() {
		// SearchStats goes through the same validation, planning and
		// cache path as the handler's Search, under its own cache key,
		// so it misses the entry the handler just stored.
		_, _, _ = e.eng.SearchStats(o.q, o.eps)
	})
	var tq []float64
	rt.timed("engine.plan", "engine", false, func() { tq = e.eng.PrepareQuery(o.q) })
	e.shards.run(rt, tq, o.eps, "engine", false)
}

func (e *httpEnv) check(samples []sample) []error {
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	var errs []error
	var checked []sample
	for _, s := range samples {
		ms, err := decodeMatches(s.ans.body)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: undecodable answer: %w", s.op.kind, err))
			continue
		}
		s.ans.ms = ms
		checked = append(checked, s)
	}
	errs = append(errs, newOracle(e.ds.series, e.ds.extra[:e.appended.Load()]...).checkAll(checked)...)
	// Ask the server again now that nothing changes, and compare with
	// the engine's own library call for the same query.
	for _, s := range checked {
		var body []byte
		var got, want []series.Match
		var err error
		if s.op.kind == kindTopK {
			if body, err = e.post("/topk", map[string]any{"query": s.op.q, "k": s.op.k}, nil); err == nil {
				want, err = e.eng.SearchTopK(s.op.q, s.op.k)
			}
		} else {
			if body, err = e.post("/search", map[string]any{"query": s.op.q, "eps": s.op.eps}, nil); err == nil {
				want, err = e.eng.SearchPrepared(e.eng.PrepareQuery(s.op.q), s.op.eps)
			}
		}
		if err == nil {
			got, err = decodeMatches(body)
		}
		if err == nil {
			err = sameMatches(got, want)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s over HTTP vs local engine: %w", s.op.kind, err))
		}
	}
	return errs
}

func (e *httpEnv) indexBytes() int            { return e.eng.MemoryBytes() }
func (e *httpEnv) engine() *twinsearch.Engine { return e.eng }

func (e *httpEnv) traceSetup(lo *layerObs) error {
	if e.mixed {
		return timeBuild(e.ds, lo)
	}
	s, err := buildShardReplay(e.ds, 4, lo)
	e.shards = s
	return err
}

// timeBuild builds and freezes an unsharded TS-Index over the series
// the way Open does, recording the time as core.build_s.
func timeBuild(ds *dataSet, lo *layerObs) error {
	t0 := time.Now()
	ix, err := core.Build(series.NewExtractor(ds.series, series.NormGlobal), core.Config{L: ds.l})
	if err != nil {
		return err
	}
	ix.Freeze()
	lo.add("core.build_s", time.Since(t0).Seconds())
	return nil
}

// appendReplays is how many append-then-search cycles serve-mixed's
// traced run times after the load has stopped.
const appendReplays = 30

// traceFinish times Append and the re-freeze the next search pays, on
// the engine directly and with no load running: engine.append_ms is the
// Append call, engine.refreeze_ms the first search after it minus a
// repeat of that search.
func (e *httpEnv) traceFinish(lo *layerObs) error {
	if !e.mixed {
		return nil
	}
	e.poolOnce.Do(e.buildPool)
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	for i := 0; i < appendReplays; i++ {
		at := int(e.appended.Load())
		if at+appendPoints > len(e.ds.extra) {
			return fmt.Errorf("append replay: generated points exhausted after %d", at)
		}
		t0 := time.Now()
		if err := e.eng.Append(e.ds.extra[at : at+appendPoints]...); err != nil {
			return err
		}
		lo.add("engine.append_ms", ms(time.Since(t0)))
		e.appended.Add(appendPoints)
		tq := e.eng.PrepareQuery(e.pool[i%len(e.pool)])
		var first, again time.Duration
		for _, d := range []*time.Duration{&first, &again} {
			t := time.Now()
			if _, err := e.eng.SearchPrepared(tq, mixedEps); err != nil {
				return err
			}
			*d = time.Since(t)
		}
		lo.add("engine.refreeze_ms", ms(first-again))
	}
	return nil
}

func (e *httpEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	if cerr := e.eng.Close(); err == nil {
		err = cerr
	}
	return err
}
