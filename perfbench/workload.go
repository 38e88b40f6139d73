package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"twinsearch"
	"twinsearch/internal/datasets"
)

// env is one set-up workload: an engine (and, for the serving and
// cluster workloads, its servers) ready to answer.
type env interface {
	// next draws the workload's next request from rng.
	next(rng *rand.Rand) op
	// do runs one request. With rt set it also records the request's
	// spans and, where the workload measures layers that way, replays
	// the query through the layers below.
	do(o op, rt *reqTrace) (answer, error)
	// check verifies sampled answers against brute force and, for the
	// HTTP and cluster tiers, against a local engine. It returns one
	// error per mismatch.
	check(samples []sample) []error
	// indexBytes is the index footprint: MemoryBytes, or the nodes'
	// mapped bytes for the cluster.
	indexBytes() int
	// engine is the engine whose serving caches the run reports, or nil.
	engine() *twinsearch.Engine
	// traceSetup builds the replicas the traced replays run on and
	// records their set-up costs.
	traceSetup(lo *layerObs) error
	// traceFinish takes the measurements that must not overlap load.
	traceFinish(lo *layerObs) error
	close() error
}

// dataSeed fixes each workload's series. The series is the workload's
// reference corpus; --seed draws the query and request streams over it.
// Random walks of different seeds differ in range and answer sizes by
// tens of percent, which would drown every change a later PR measures.
const dataSeed = 1

// seriesPoints is the length of every workload's series at scale 1.
const seriesPoints = 200_000

// dataSet is a workload's generated input.
type dataSet struct {
	name   string    // generator, for the run header
	series []float64 // what the engine indexes
	extra  []float64 // points the workload appends, in order
	l      int
	starts stream // query start positions
}

// query returns a length-m subsequence of the series at the next start
// of the query stream: queries sampled from the series, the paper's
// query workload (§6.1).
func (d *dataSet) query(m int) []float64 {
	p := d.starts.next()
	return d.series[p : p+m]
}

// stream draws query starts that visit the n window starts evenly: the
// golden-ratio sequence from an offset u0 in [0, 1) that the seed picks.
// Any prefix of the stream covers the whole series about evenly, so each
// run draws nearly the same mix of answer sizes, and the percentiles do
// not hinge on which few huge answers a seed happened to draw. Starts
// stay distinct for far more queries than a run makes. Clients share the
// stream.
type stream struct {
	u0 float64
	n  int
	i  atomic.Int64
}

func (s *stream) next() int {
	_, f := math.Modf(s.u0 + float64(s.i.Add(1)-1)*(math.Sqrt(5)-1)/2)
	return int(f * float64(s.n))
}

// workload is one named set of inputs and load.
type workload struct {
	name    string
	why     string
	dataset string // "eeg" or "walk"
	shards  int
	eps     string
	mix     string
	// clients is the closed loop's client count and the open-loop
	// phase's connection count.
	clients int
	// procs, when not 0, is the run's GOMAXPROCS.
	procs int
	// rate is the request rate of the traced run's open-loop phase; 0
	// means the workload has none.
	rate float64
	open func(ds *dataSet, cfg config) (env, error)
}

const (
	maxClients = 2 // the most clients any workload runs: nproc of the reference box
	mixedEps   = 0.2
	wideEps    = 0.5
	topK       = 10
	l          = 100

	// mixedRate is the rate of serve-mixed's open-loop phase, about 45%
	// of its closed-loop capacity on the reference box.
	mixedRate    = 500
	appendEvery  = 50  // serve-mixed sends every 50th request as an append (2%)
	appendPoints = 10  // points per append
	poolSize     = 300 // serve-mixed query pool
	zipfS        = 1.1 // serve-mixed popularity skew
	// appendBudget is how many points serve-mixed can append: ten times
	// what a run appends on the reference box.
	appendBudget = 60_000
	// lateBound is the open-loop generator lateness (p99 of actual send
	// minus due time) past which a run is invalid: the load was not
	// offered at the stated rate. Host stalls of tens of milliseconds
	// are common on a shared box; a backlog that grows reaches seconds.
	lateBound = 250 * time.Millisecond
)

// workloads lists every workload the benchmark runs, as BENCHMARK.json
// names them.
var workloads = []*workload{
	{
		name:    "wide-http",
		why:     "HTTP handler, 4 shards, random walk eps=0.5, ~50k-match answers: sort, merge, JSON encode dominate; result cache always misses",
		dataset: "walk",
		shards:  4,
		eps:     "0.5",
		mix:     "POST /search 100%, every query distinct; tsserve default caches",
		clients: 2,
		open:    openWide,
	},
	{
		name:    "serve-mixed",
		why:     "HTTP handler, Zipf reads plus an append every 50th request: the only writes; cache hits, epoch invalidation, append plus re-freeze",
		dataset: "eeg",
		eps:     "0.2",
		mix:     "/search 68.6%, /topk(k=10) 29.4%, /append(10 points) every 50th request; reads Zipf(1.1) over 300 sampled queries; tsserve default caches",
		clients: 1,
		procs:   1,
		rate:    mixedRate,
		open:    openMixed,
	},
	{
		name:    "cluster-loopback",
		why:     "coordinator over two loopback shard nodes: the only workload crossing the shard RPC (encode, wire, decode) and coordinator merge",
		dataset: "walk",
		shards:  4,
		eps:     "0.1, 0.2",
		mix:     "range eps=0.1 30%, range eps=0.2 30%, top-k(k=10) 25%, shorter(L/2, eps=0.2) 15%; R=1, 2 shards per node, mmap on, hedging off",
		clients: 2,
		open:    openCluster,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// data generates the workload's series (and, for serve-mixed, the
// points it will append) at the given scale.
func (w *workload) data(cfg config) *dataSet {
	n := int(seriesPoints * cfg.scale)
	if n < 20*l {
		n = 20 * l
	}
	extra := 0
	if w.rate > 0 {
		extra = appendBudget
	}
	ds := &dataSet{l: l}
	defer func() {
		ds.starts.u0 = rand.New(rand.NewSource(cfg.seed)).Float64()
		ds.starts.n = len(ds.series) - l + 1
	}()
	switch w.dataset {
	case "eeg":
		ds.name = "datasets.EEGN"
		all := datasets.EEGN(dataSeed, n+extra)
		ds.series, ds.extra = all[:n:n], all[n:]
	default:
		ds.name = "datasets.RandomWalk"
		ds.series = datasets.RandomWalk(dataSeed, n)
	}
	return ds
}

// warmup is the untimed run before measuring: it lets lazy set-up
// finish and the connections open.
func warmup(cfg config) time.Duration {
	d := cfg.seconds / 10
	if d > time.Second {
		d = time.Second
	}
	return d
}
