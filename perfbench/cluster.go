package main

// cluster-loopback: a coordinator engine (Options.Topology) over two
// shard nodes served from this process on loopback listeners.

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
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"twinsearch"
	"twinsearch/internal/arena"
	"twinsearch/internal/cluster"
	"twinsearch/internal/series"
)

const (
	clusterShards = 4
	clusterNodes  = 2
)

type clusterEnv struct {
	ds    *dataSet
	dir   string
	index string
	// local is the engine that built the saved index; the gate compares
	// the coordinator's answers with it.
	local *twinsearch.Engine
	eng   *twinsearch.Engine // the coordinator
	nodes []*nodeServer

	// Traced requests in flight, keyed by the first two values of the
	// transformed query, which every shard RPC body starts with.
	inflight  sync.Map
	traced    atomic.Int64 // traced requests in flight
	failovers atomic.Int64 // node answers other than 200 while traced

	shards *shardReplay
}

// nodeServer is one shard node behind its RPC handler and listener.
type nodeServer struct {
	env    *clusterEnv
	node   *cluster.Node
	rpc    http.Handler
	srv    *http.Server
	served chan error
}

type nodeDoc struct {
	Name   string `json:"name"`
	Addr   string `json:"addr"`
	Shards []int  `json:"shards"`
}

func openCluster(ds *dataSet, cfg config) (env, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "cluster-")
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{ds: ds, dir: dir, index: filepath.Join(dir, "index.tssh")}
	if err := e.open(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// open builds and saves the sharded index, starts the nodes and opens
// the coordinator over them.
func (e *clusterEnv) open() error {
	var err error
	e.local, err = twinsearch.Open(e.ds.series, twinsearch.Options{L: e.ds.l, Shards: clusterShards})
	if err != nil {
		return err
	}
	if err := e.local.SaveIndexFile(e.index); err != nil {
		return err
	}
	topo := struct {
		Index string    `json:"index"`
		Nodes []nodeDoc `json:"nodes"`
	}{Index: filepath.Base(e.index)}
	var lns []net.Listener
	for i := 0; i < clusterNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		lns = append(lns, ln)
		var own []int
		for s := i * clusterShards / clusterNodes; s < (i+1)*clusterShards/clusterNodes; s++ {
			own = append(own, s)
		}
		topo.Nodes = append(topo.Nodes, nodeDoc{Name: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String(), Shards: own})
	}
	raw, err := json.Marshal(topo)
	if err == nil {
		err = os.WriteFile(filepath.Join(e.dir, "topology.json"), raw, 0o644)
	}
	var t *cluster.Topology
	if err == nil {
		t, err = cluster.LoadTopology(filepath.Join(e.dir, "topology.json"))
	}
	ext := series.NewExtractor(e.ds.series, series.NormGlobal)
	for i, ln := range lns {
		if err != nil {
			ln.Close()
			continue
		}
		var n *cluster.Node
		n, err = cluster.OpenNode(t, topo.Nodes[i].Name, ext, cluster.NodeOptions{})
		if err != nil {
			ln.Close()
			continue
		}
		ns := &nodeServer{env: e, node: n, rpc: cluster.NewNodeRPC(n), served: make(chan error, 1)}
		ns.srv = &http.Server{Handler: ns, ReadHeaderTimeout: 10 * time.Second}
		go func() { ns.served <- ns.srv.Serve(ln) }()
		e.nodes = append(e.nodes, ns)
	}
	if err != nil {
		return err
	}
	e.eng, err = twinsearch.Open(e.ds.series, twinsearch.Options{
		L: e.ds.l, Topology: filepath.Join(e.dir, "topology.json"), MMap: true,
	})
	return err
}

// key identifies a traced request by its transformed query's first two
// values; two concurrent traced requests share one only if they send
// the same query.
func key(tq []float64) [2]uint64 {
	return [2]uint64{math.Float64bits(tq[0]), math.Float64bits(tq[1])}
}

// ServeHTTP wraps the node's RPC handler. While traced requests are in
// flight it attributes each shard RPC to its request, times it and
// counts its bytes; otherwise it only forwards.
func (ns *nodeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e := ns.env
	if e.traced.Load() == 0 || r.Method != http.MethodPost {
		ns.rpc.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req struct {
		Query []float64 `json:"query"`
	}
	var rt *reqTrace
	if json.Unmarshal(body, &req) == nil && len(req.Query) >= 2 {
		if v, ok := e.inflight.Load(key(req.Query)); ok {
			rt = v.(*reqTrace)
		}
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	ns.rpc.ServeHTTP(cw, r)
	rt.add("cluster.node", "coord", t0, time.Now(), false)
	rt.count("cluster.rpc_bytes_in", float64(len(body)))
	rt.count("cluster.rpc_bytes_out", float64(cw.n))
	if cw.status != http.StatusOK {
		e.failovers.Add(1)
	}
}

// countingWriter counts the bytes of a response and keeps its status.
type countingWriter struct {
	http.ResponseWriter
	n      int
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func (e *clusterEnv) next(rng *rand.Rand) op {
	u := rng.Float64()
	switch {
	case u < 0.30:
		return op{kind: kindRange, q: e.ds.query(l), eps: 0.1}
	case u < 0.60:
		return op{kind: kindRange, q: e.ds.query(l), eps: 0.2}
	case u < 0.85:
		return op{kind: kindTopK, q: e.ds.query(l), k: topK}
	}
	return op{kind: kindShorter, q: e.ds.query(l / 2), eps: 0.2}
}

func (e *clusterEnv) do(o op, rt *reqTrace) (answer, error) {
	var tq []float64
	if rt != nil {
		tq = e.eng.PrepareQuery(o.q)
		e.inflight.Store(key(tq), rt)
		e.traced.Add(1)
		defer func() {
			e.traced.Add(-1)
			e.inflight.Delete(key(tq))
		}()
	}
	ans := answer{seriesLen: len(e.ds.series)}
	var err error
	t0 := time.Now()
	switch o.kind {
	case kindRange:
		ans.ms, err = e.eng.Search(o.q, o.eps)
	case kindTopK:
		ans.ms, err = e.eng.SearchTopK(o.q, o.k)
	case kindShorter:
		ans.ms, err = e.eng.SearchShorter(o.q, o.eps)
	default:
		err = fmt.Errorf("cluster-loopback has no %s requests", o.kind)
	}
	t1 := time.Now()
	if err != nil || rt == nil {
		return ans, err
	}
	rt.add("coord", "", t0, t1, false)
	if o.kind == kindRange {
		// Off the blocking path: the same search on a local replica of
		// the four shards, for per-shard skew.
		e.shards.run(rt, tq, o.eps, "coord", true)
	}
	return ans, nil
}

func (e *clusterEnv) check(samples []sample) []error {
	errs := newOracle(e.ds.series).checkAll(samples)
	for _, s := range samples {
		var want []series.Match
		var err error
		switch s.op.kind {
		case kindRange:
			want, err = e.local.Search(s.op.q, s.op.eps)
		case kindTopK:
			want, err = e.local.SearchTopK(s.op.q, s.op.k)
		case kindShorter:
			want, err = e.local.SearchShorter(s.op.q, s.op.eps)
		}
		if err == nil {
			err = sameMatches(s.ans.ms, want)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s from the cluster vs local engine: %w", s.op.kind, err))
		}
	}
	return errs
}

// indexBytes is what the nodes map of the saved index.
func (e *clusterEnv) indexBytes() int {
	n := 0
	for _, ns := range e.nodes {
		n += ns.node.Sub.MappedBytes()
	}
	return n
}

func (e *clusterEnv) engine() *twinsearch.Engine { return e.eng }

func (e *clusterEnv) traceSetup(lo *layerObs) error {
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ar, err := arena.Map(e.index)
		if err != nil {
			return err
		}
		lo.add("arena.open_ms", ms(time.Since(t0)))
		if err := ar.Close(); err != nil {
			return err
		}
	}
	s, err := buildShardReplay(e.ds, clusterShards, lo)
	e.shards = s
	return err
}

func (e *clusterEnv) traceFinish(lo *layerObs) error {
	lo.add("cluster.failovers", float64(e.failovers.Load()))
	return nil
}

func (e *clusterEnv) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.eng != nil {
		keep(e.eng.Close())
	}
	for _, ns := range e.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(ns.srv.Shutdown(ctx))
		cancel()
		if err := <-ns.served; err != http.ErrServerClosed {
			keep(err)
		}
		keep(ns.node.Close())
	}
	if e.local != nil {
		keep(e.local.Close())
	}
	keep(os.RemoveAll(e.dir))
	return first
}
