// Package twinsearch is a Go implementation of twin subsequence search
// in time series — finding every subsequence of a long series whose
// Chebyshev (L∞) distance to a query sequence is at most ε — after
// "Twin Subsequence Search in Time Series" (EDBT 2021).
//
// The package exposes four interchangeable search methods behind one
// Engine type:
//
//   - MethodTSIndex (default): the paper's contribution, a
//     height-balanced tree whose nodes carry Minimum Bounding Time
//     Series. Fastest under every condition the paper evaluates.
//   - MethodISAX: the iSAX tree adapted to twin search via per-segment
//     mean bounds.
//   - MethodKVIndex: an inverted index over subsequence means
//     (inapplicable under per-subsequence normalization).
//   - MethodSweepline: the exact index-free scan, useful as ground
//     truth and for one-off queries that don't amortize an index build.
//
// Basic use:
//
//	eng, err := twinsearch.Open(data, twinsearch.Options{L: 100})
//	if err != nil { ... }
//	matches, err := eng.Search(query, 0.3)
//
// Queries are given in the raw value space of the input series; the
// engine applies the configured normalization to data and query
// consistently.
package twinsearch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twinsearch/internal/arena"
	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/isax"
	"twinsearch/internal/kvindex"
	"twinsearch/internal/obs"
	"twinsearch/internal/qcache"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
	"twinsearch/internal/store"
	"twinsearch/internal/sweepline"
)

// NormMode selects how values are normalized before indexing and search;
// see the paper §3.1 and the constants below.
type NormMode = series.NormMode

// Normalization modes.
const (
	// NormNone indexes raw values.
	NormNone = series.NormNone
	// NormGlobal z-normalizes the whole series once (paper default).
	NormGlobal = series.NormGlobal
	// NormPerSubsequence z-normalizes every window independently.
	NormPerSubsequence = series.NormPerSubsequence
)

// Match is a search hit: the 0-based start of the twin subsequence and,
// when the method computes it (SearchTopK), its Chebyshev distance
// (otherwise -1).
type Match = series.Match

// Method selects the search implementation.
type Method int

// Search methods.
const (
	MethodTSIndex Method = iota
	MethodISAX
	MethodKVIndex
	MethodSweepline
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodTSIndex:
		return "TS-Index"
	case MethodISAX:
		return "iSAX"
	case MethodKVIndex:
		return "KV-Index"
	case MethodSweepline:
		return "Sweepline"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrTopKUnsupported is returned by SearchTopK for methods other than
// TS-Index.
var ErrTopKUnsupported = errors.New("twinsearch: top-k search requires MethodTSIndex")

// Options configures an Engine. The zero value of every field selects a
// sensible default; only L is mandatory.
type Options struct {
	// L is the subsequence length the engine indexes and queries
	// (paper default 100). Required.
	L int
	// Method selects the search implementation (default MethodTSIndex).
	Method Method
	// Norm selects the normalization mode (default NormGlobal, the
	// paper's default setting).
	Norm NormMode
	// NormSet forces Norm to be honored even when it is the zero value;
	// set it when you explicitly want NormNone. (NormNone is the
	// NormMode zero value, so Options{Norm: NormNone} alone is
	// indistinguishable from "use the default".)
	NormSet bool

	// TS-Index knobs (MethodTSIndex).
	MinCap, MaxCap int  // node capacities µc, Mc (defaults 10, 30)
	BulkLoad       bool // bottom-up construction instead of insertion

	// Shards splits the TS-Index into that many window partitions, built
	// concurrently and searched by parallel fan-out with a deterministic
	// merge — answers are identical to the single index; construction
	// and search scale with cores. 0 (or 1) keeps the unchanged
	// single-index path; a negative value selects one shard per
	// available CPU (GOMAXPROCS). MethodTSIndex only.
	Shards int

	// PartitionByMean makes sharded partitions own mean-sorted runs of
	// the window positions instead of contiguous ranges: each shard
	// packs look-alike windows, so its MBTS are tighter and searches
	// prune more. The merge is the same under either scheme: shard
	// lists are concatenated and sorted by start once, in linear time.
	// Answers are identical either way. Ignored unless Shards resolves
	// above 1.
	PartitionByMean bool

	// Workers sizes the engine's query executor — the work-stealing
	// worker pool that runs every parallel search path: sharded
	// fan-out (each query becomes fine-grained (shard, subtree) work
	// units, so one hot shard no longer bounds latency), SearchBatch
	// workloads (all queries share the one pool instead of nesting a
	// second one), and approximate probes. 0 selects GOMAXPROCS.
	// Answers never depend on the worker count.
	Workers int

	// MMap makes OpenSavedFile memory-map the saved index instead of
	// reading it: the engine's frozen arenas become views into the
	// mapped file, so opening a multi-gigabyte index costs O(header)
	// allocations, pages fault in on demand, and N processes serving
	// the same index share one physical copy. Requires the current
	// aligned formats (TSFZ v2 / TSSH v3) and a little-endian host;
	// anything else silently falls back to the copy loader, which
	// yields byte-identical answers. Call Engine.Close to release the
	// mapping. Ignored by every entry point except OpenSavedFile.
	MMap bool

	// Prefetch warms a memory-mapped index right after OpenSavedFile
	// maps it: madvise(MADV_WILLNEED) over the region plus a bounded
	// sequential touch pass (see arena.Prefetch). It trades the
	// page-fault latency tail of the first queries for a fixed warmup
	// cost at open. Ignored without MMap (heap engines are already
	// resident).
	Prefetch bool

	// Topology points Open at a cluster topology file instead of a
	// local index: the engine becomes a distributed-query coordinator
	// that fans every search across the shard nodes listed there
	// (internal/cluster) and merges deterministically — answers are
	// byte-identical to a local engine over the same saved index. The
	// engine still needs the full series (data) for query
	// normalization, verification-free merging, and the prefix tail
	// scan. Cluster engines are read-only: Append and SaveIndex return
	// errors. Requires MethodTSIndex; Shards/BulkLoad are ignored
	// (the saved index fixed them). MMap/Prefetch/Workers apply to
	// topology entries served in-process (addr "local").
	Topology string

	// ClusterTimeout bounds every per-node RPC of a Topology engine; an
	// attempt that cannot answer within it fails over to the shard's
	// next replica, and only when every replica is out does the query
	// fail with an error naming the nodes. 0 selects the cluster
	// default (10s). The bound is per attempt and absolute: it also
	// caps any longer deadline on the caller's context.
	ClusterTimeout time.Duration

	// ClusterHedge, when positive, hedges each cluster query unit: the
	// same unit goes to a second replica after this delay, the first
	// response wins, the loser is canceled. Needs a replicated topology
	// (Replicas ≥ 2) to have any effect. 0 disables hedging.
	ClusterHedge time.Duration

	// ClusterBreakerFails is the consecutive-failure run that trips a
	// node's circuit breaker, dropping it to the back of the replica
	// attempt order until a health probe sees it answer again. 0
	// selects the cluster default (3).
	ClusterBreakerFails int

	// ClusterRefresh is the period of the coordinator's background
	// membership sweep, the single source of truth for node liveness
	// surfaced in /healthz. 0 selects the cluster default (2s);
	// negative disables the sweep.
	ClusterRefresh time.Duration

	// PlanCache sizes the prepared-query plan cache: an LRU keyed by
	// the raw query bytes that stores the validated query mapped into
	// the engine's value space, so a repeated query skips validation
	// and normalization and goes straight to index dispatch. 0
	// disables the cache (the default — library callers pay nothing
	// unless they opt in); a negative value selects
	// DefaultPlanCacheEntries; a positive value is the entry bound.
	// Serving tiers (tsserve) enable it by default.
	PlanCache int

	// ResultCacheBytes sizes the result cache: whole answers keyed by
	// (query bytes, parameters, search path, index epoch), bounded to
	// this many bytes with LRU eviction. A hit returns the cached
	// matches — byte-identical to a fresh traversal — without touching
	// the index. Invalidation is structural: every Append bumps the
	// engine's epoch (see Epoch), so stale entries become unreachable
	// by key mismatch and age out under the byte budget; nothing is
	// scanned. 0 disables (default), negative selects
	// DefaultResultCacheBytes, positive is the byte bound. Only the
	// raw-query entry points consult it (Search/SearchStats/SearchTopK/
	// SearchShorter/SearchApprox and their Ctx forms); SearchPrepared
	// and the batch paths always traverse.
	ResultCacheBytes int

	// TraceSample enables 1-in-N per-query trace sampling: every Nth
	// raw query (across all paths) records a span tree — validation,
	// cache outcomes, per-shard traversal counters, cluster attempts —
	// retained in the slow-query log when the query crosses its
	// threshold. 0 disables sampling (the default); tracing can still
	// be forced per query by installing a span in the context (the
	// server does this for ?trace=1). The untraced path is
	// allocation-free regardless of this knob.
	TraceSample int

	// SlowLogSize enables the slow-query log: a ring buffer of the N
	// most recent queries whose latency reached SlowLogThreshold,
	// surfaced at the server's GET /debug/slowlog and via
	// Engine.SlowLog. 0 disables it (the default).
	SlowLogSize int

	// SlowLogThreshold is the latency at or above which a query enters
	// the slow-query log. 0 selects 100ms. Ignored without SlowLogSize.
	SlowLogThreshold time.Duration

	// iSAX knobs (MethodISAX).
	Segments     int // PAA segments m (default 10)
	LeafCapacity int // leaf capacity (default 10,000)

	// KV-Index knobs (MethodKVIndex).
	KeyCount        int  // mean buckets (default 256)
	ExactMeanFilter bool // O(1) exact-mean prefilter before verification
}

func (o *Options) fill() error {
	if o.L <= 0 {
		return fmt.Errorf("twinsearch: Options.L = %d; a positive subsequence length is required", o.L)
	}
	if !o.NormSet && o.Norm == NormNone {
		o.Norm = NormGlobal
	}
	if o.Segments == 0 {
		o.Segments = 10
	}
	return nil
}

// Engine holds a built index (or scan state) over one time series and
// answers twin queries against it.
type Engine struct {
	opt Options
	ext *series.Extractor
	ex  *exec.Executor // query executor; sized by Options.Workers

	sweep *sweepline.Sweepline
	kv    *kvindex.Index
	isx   *isax.Index
	// MethodTSIndex, Options.Shards resolving ≤ 1: fz is the frozen
	// arena every search traverses; ts is the mutable pointer tree,
	// resident only while Append needs it (it is dropped after the
	// initial build and thawed back from fz on the first Append).
	// Append marks fzDirty instead of re-freezing eagerly — appending
	// value by value stays cheap — and the next search recompiles the
	// arena once (fzMu serializes searches racing to do so, mirroring
	// shard.Index.ensureFrozen).
	fz      *core.Frozen
	ts      *core.Index
	fzDirty atomic.Bool
	fzMu    sync.Mutex
	sh      *shard.Index // MethodTSIndex, Options.Shards resolving > 1

	// cl serves queries when the engine was opened with
	// Options.Topology: a distributed coordinator fanning out to shard
	// nodes instead of any local index.
	cl *cluster.Coordinator

	// ar is the mapped file region backing the index when the engine
	// was opened with Options.MMap; the engine owns it and Close
	// releases it. nil for every heap-resident engine.
	ar *arena.Arena

	// Serving-tier caches (nil when disabled): plan holds prepared
	// queries keyed by raw query bytes, res holds whole answers keyed
	// by (query, params, path, epoch). See Options.PlanCache /
	// Options.ResultCacheBytes.
	plan *qcache.PlanCache
	res  *qcache.ResultCache

	// epoch is the index mutation counter result-cache keys embed:
	// bumped on every Append (and on Close), never on re-freeze (the
	// logical content is unchanged). Cluster engines compose their
	// epoch from per-node values instead — see Epoch.
	epoch atomic.Uint64

	// Observability (internal/obs): met is the always-on metric set
	// behind Engine.Metrics and GET /metrics; sampler decides which
	// queries grow a span tree (Options.TraceSample); slow retains
	// above-threshold queries (nil unless Options.SlowLogSize). See
	// obs_engine.go.
	met     *engineMetrics
	sampler *obs.Sampler
	slow    *obs.SlowLog

	// closed guards use-after-Close: every search/mutation entry point
	// fails with ErrClosed instead of reaching arenas that may point
	// into an unmapped region. closeMu makes concurrent Close calls
	// idempotent.
	closed  atomic.Bool
	closeMu sync.Mutex
}

// Serving-tier cache defaults, selected by negative Options.PlanCache /
// Options.ResultCacheBytes (and by tsserve's flag defaults).
const (
	DefaultPlanCacheEntries = 4096
	DefaultResultCacheBytes = 32 << 20
)

// newEngine builds the common engine shell every open path shares:
// extractor, executor, and the serving-tier caches the options select.
func newEngine(data []float64, opt Options) *Engine {
	e := &Engine{opt: opt, ext: series.NewExtractor(data, opt.Norm), ex: exec.New(opt.Workers)}
	if n := opt.PlanCache; n != 0 {
		if n < 0 {
			n = DefaultPlanCacheEntries
		}
		e.plan = qcache.NewPlan(n)
	}
	if b := opt.ResultCacheBytes; b != 0 {
		if b < 0 {
			b = DefaultResultCacheBytes
		}
		e.res = qcache.NewResult(b)
	}
	e.met = newEngineMetrics()
	e.sampler = obs.NewSampler(opt.TraceSample)
	e.slow = obs.NewSlowLog(opt.SlowLogSize, opt.SlowLogThreshold)
	e.registerEngineGauges()
	return e
}

// ErrClosed is returned by every search, append, and save entry point
// once Engine.Close has run: a closed engine's arenas may point into an
// unmapped file region, so the guard turns a potential fault into a
// clean error.
var ErrClosed = errors.New("twinsearch: engine is closed")

// Close releases the resources an engine may hold beyond the heap: the
// mapped index region (Options.MMap), the cluster coordinator's local
// mappings and idle connections (Options.Topology), and the series
// store attached to the extractor, if it is closeable (e.g. a
// store.Disk serving disk-resident verification). Heap-only engines
// close trivially. Close is idempotent, safe to race with itself, and
// every call after the first returns nil; searches, appends, and saves
// beginning after Close fail with ErrClosed. A search still in flight
// when Close lands is not protected — quiesce first (tsserve drains
// before closing).
func (e *Engine) Close() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	e.closed.Store(true)
	// Close is a cache-relevant mutation too: bump the epoch so any
	// result-cache write racing the close can never be read back (its
	// key embeds the pre-close epoch).
	e.epoch.Add(1)
	var firstErr error
	if e.cl != nil {
		firstErr = e.cl.Close()
	}
	if e.ar != nil {
		if err := e.ar.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		e.ar = nil
	}
	if c, ok := e.ext.Backing().(io.Closer); ok {
		e.ext.DetachStore()
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tsFrozen returns the single-index arena, re-freezing it first if
// Append left it stale. Hot path cost is one atomic load.
func (e *Engine) tsFrozen() *core.Frozen {
	if e.fzDirty.Load() {
		e.fzMu.Lock()
		if e.fzDirty.Load() {
			e.fz = e.ts.Freeze()
			e.fzDirty.Store(false)
		}
		e.fzMu.Unlock()
	}
	return e.fz
}

// resolveShards maps the Options.Shards knob to an effective shard
// count: non-positive-is-auto is resolved here so the engine's routing
// (ts vs sh) is fixed at Open time.
func resolveShards(shards int) int {
	if shards < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// Open builds an engine over data according to opt. The slice is not
// copied for raw/per-subsequence modes and must not be modified
// afterwards. Every value must be finite: a NaN would poison the
// early-abandoning comparisons (NaN > ε is false, so a NaN window would
// silently match everything), so non-finite input is rejected here.
func Open(data []float64, opt Options) (*Engine, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	if len(data) < opt.L {
		return nil, fmt.Errorf("twinsearch: series length %d shorter than L=%d", len(data), opt.L)
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("twinsearch: non-finite value %v at position %d; clean or impute missing samples first", v, i)
		}
	}
	if resolveShards(opt.Shards) > 1 && opt.Method != MethodTSIndex {
		return nil, fmt.Errorf("twinsearch: Options.Shards requires MethodTSIndex, got %v", opt.Method)
	}
	e := newEngine(data, opt)
	if opt.Topology != "" {
		if opt.Method != MethodTSIndex {
			return nil, fmt.Errorf("twinsearch: Options.Topology requires MethodTSIndex, got %v", opt.Method)
		}
		topo, err := cluster.LoadTopology(opt.Topology)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.OpenCoordinator(context.Background(), topo, e.ext, opt.L, cluster.Options{
			Timeout: opt.ClusterTimeout, HedgeDelay: opt.ClusterHedge,
			BreakerFails: opt.ClusterBreakerFails, RefreshInterval: opt.ClusterRefresh,
			Workers: opt.Workers, NoMMap: !opt.MMap, Prefetch: opt.Prefetch,
		})
		if err != nil {
			return nil, err
		}
		e.cl = cl
		e.registerClusterGauges()
		return e, nil
	}
	var err error
	switch opt.Method {
	case MethodSweepline:
		e.sweep = sweepline.New(e.ext)
	case MethodKVIndex:
		e.kv, err = kvindex.Build(e.ext, kvindex.Config{
			L: opt.L, KeyCount: opt.KeyCount, ExactMeanFilter: opt.ExactMeanFilter,
		})
	case MethodISAX:
		e.isx, err = isax.Build(e.ext, isax.Config{
			L: opt.L, Segments: opt.Segments, LeafCapacity: opt.LeafCapacity,
		})
	case MethodTSIndex:
		cfg := core.Config{L: opt.L, MinCap: opt.MinCap, MaxCap: opt.MaxCap}
		if shards := resolveShards(opt.Shards); shards > 1 {
			e.sh, err = shard.Build(e.ext, shard.Config{
				Config: cfg, Shards: shards, BulkLoad: opt.BulkLoad,
				PartitionByMean: opt.PartitionByMean, Executor: e.ex,
			})
		} else {
			var ix *core.Index
			if opt.BulkLoad {
				ix, err = core.BuildBulk(e.ext, cfg)
			} else {
				ix, err = core.Build(e.ext, cfg)
			}
			if err == nil {
				// Freeze the built tree into its flat arena and let the
				// pointer form go; Append thaws it back on demand.
				e.fz = ix.Freeze()
			}
		}
	default:
		err = fmt.Errorf("twinsearch: unknown method %v", opt.Method)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// OpenFile builds an engine over a series stored in the flat binary
// float64 format written by store.WriteFile / cmd/tsgen.
func OpenFile(path string, opt Options) (*Engine, error) {
	data, err := store.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Open(data, opt)
}

// Search returns all subsequences whose Chebyshev distance to q is at
// most eps, ordered by start position. q is in the raw value space of
// the input series and must have length L with finite values.
func (e *Engine) Search(q []float64, eps float64) ([]Match, error) {
	return e.SearchCtx(context.Background(), q, eps)
}

// SearchCtx is Search honoring cancellation: when ctx ends, queued
// fan-out work units are skipped, in-flight remote calls abort, and the
// call returns ctx.Err() — the hook internal/server uses to stop
// burning executor time for disconnected clients.
func (e *Engine) SearchCtx(ctx context.Context, q []float64, eps float64) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	ctx, qo := e.beginQuery(ctx, qpSearch)
	tq, err := e.validateQueryCtx(ctx, q, eps)
	if err != nil {
		e.endQuery(qo, err)
		return nil, err
	}
	r, err := e.searchCached(ctx, qcache.PathSearch, q, eps, 0, func() (qcache.Result, error) {
		ms, err := e.searchPreparedCtx(ctx, tq, eps)
		return qcache.Result{Matches: ms}, err
	})
	e.endQuery(qo, err)
	return r.Matches, err
}

// Stats carries the traversal counters of one TS-Index search: nodes
// visited and pruned, leaves reached, candidate windows verified, and
// results found — the observability surface SearchStats reports.
type Stats = core.Stats

// SearchStats is Search plus the traversal counters of the answer. On
// sharded and cluster engines the counters are summed across work
// units (each partition's tree packs differently, so the values differ
// from a single index's; the match set does not). Requires
// MethodTSIndex.
func (e *Engine) SearchStats(q []float64, eps float64) ([]Match, Stats, error) {
	return e.SearchStatsCtx(context.Background(), q, eps)
}

// SearchStatsCtx is SearchStats honoring cancellation (see SearchCtx).
func (e *Engine) SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]Match, Stats, error) {
	if e.closed.Load() {
		return nil, Stats{}, ErrClosed
	}
	if e.opt.Method != MethodTSIndex {
		return nil, Stats{}, errors.New("twinsearch: SearchStats requires MethodTSIndex")
	}
	ctx, qo := e.beginQuery(ctx, qpStats)
	tq, err := e.validateQueryCtx(ctx, q, eps)
	if err != nil {
		e.endQuery(qo, err)
		return nil, Stats{}, err
	}
	r, err := e.searchCached(ctx, qcache.PathStats, q, eps, 0, func() (qcache.Result, error) {
		ms, st, err := e.searchStatsPreparedCtx(ctx, tq, eps)
		return qcache.Result{Matches: ms, Stats: st, HasStats: true}, err
	})
	e.endQuery(qo, err)
	return r.Matches, r.Stats, err
}

// searchStatsPreparedCtx dispatches a validated, transformed query to
// the stats-reporting traversal of whichever TS-Index backing the
// engine has.
func (e *Engine) searchStatsPreparedCtx(ctx context.Context, tq []float64, eps float64) ([]Match, Stats, error) {
	if e.cl != nil {
		return e.cl.SearchStats(ctx, tq, eps)
	}
	if e.sh != nil {
		return e.sh.SearchStatsCtx(ctx, tq, eps)
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	_, tsp := obs.StartSpan(ctx, "traverse")
	ms, st := e.tsFrozen().SearchStats(tq, eps)
	setStatsAttrs(tsp, st)
	tsp.End()
	return ms, st, nil
}

// validateQuery runs the full raw-query validation and returns the
// query mapped into the engine's value space. SearchBatch hoists this
// per query so the transformed query is shared by every (query, shard)
// work unit instead of being recomputed inside each worker.
func (e *Engine) validateQuery(q []float64, eps float64) ([]float64, error) {
	tq, _, err := e.validateQueryHit(q, eps)
	return tq, err
}

// validateQueryHit is validateQuery also reporting whether the plan
// came from the plan cache — the bit the trace layer annotates.
func (e *Engine) validateQueryHit(q []float64, eps float64) ([]float64, bool, error) {
	if eps < 0 || math.IsNaN(eps) {
		return nil, false, fmt.Errorf("twinsearch: invalid threshold %v", eps)
	}
	return e.planQuery(q)
}

// planQuery validates a raw query (length, finiteness) and maps it
// into the engine's value space, consulting the plan cache when one is
// configured: a hit skips both the validation pass and the transform
// (cached plans were stored post-validation, and the transform is a
// pure function of the query bytes — the global normalization
// parameters are frozen at Open, so a plan never goes stale). The
// returned slice is shared on a hit and must be treated as read-only;
// every search path already does.
func (e *Engine) planQuery(q []float64) ([]float64, bool, error) {
	if len(q) != e.opt.L {
		return nil, false, fmt.Errorf("twinsearch: query length %d, engine built for L=%d", len(q), e.opt.L)
	}
	var key string
	if e.plan != nil {
		key = qcache.QueryKey(q)
		if tq, ok := e.plan.Get(key); ok {
			return tq, true, nil
		}
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false, fmt.Errorf("twinsearch: non-finite query value %v at position %d", v, i)
		}
	}
	// With no normalization the transform is the identity, so when no
	// plan cache will retain tq past this call, serve q itself instead
	// of a defensive copy: the traversal treats tq as read-only and is
	// done with it before the caller regains control, and skipping the
	// copy keeps the uncached raw-mode query path allocation-free
	// (BenchmarkTraceDisabled).
	if e.plan == nil && e.ext.Mode() == series.NormNone {
		return q, false, nil
	}
	tq := e.ext.TransformQuery(q)
	if e.plan != nil {
		e.plan.Put(key, tq)
	}
	return tq, false, nil
}

// searchCached serves one raw-query search from the result cache when
// enabled: the key embeds the search path, both parameters, the raw
// query bytes, and the index epoch read *before* the traversal starts,
// so an answer computed against one index version can never be served
// for another — invalidation is a key mismatch, never a scan. Errors
// (including cancellations) are never cached.
func (e *Engine) searchCached(ctx context.Context, path qcache.Path, q []float64, a, b float64, run func() (qcache.Result, error)) (qcache.Result, error) {
	sp := obs.SpanFrom(ctx)
	if e.res == nil {
		sp.Set("result_cache", "off")
		return run()
	}
	epoch := e.Epoch()
	key := qcache.ResultKey(path, epoch, a, b, q)
	if r, ok := e.res.Get(key); ok {
		sp.Set("result_cache", "hit")
		return r, nil
	}
	sp.Set("result_cache", "miss")
	r, err := run()
	if err != nil {
		return r, err
	}
	e.res.Put(key, r)
	return r, nil
}

// Epoch returns the engine's index mutation counter: a monotonically
// increasing value bumped by every Append (and by Close), stable
// across searches and re-freezes. Result-cache keys embed it, so any
// consumer caching answers can use "epoch changed" as the invalidation
// signal. Cluster engines compose the epoch from the coordinator's
// per-node view.
func (e *Engine) Epoch() uint64 {
	if e.cl != nil {
		return e.cl.Epoch()
	}
	return e.epoch.Load()
}

// CacheCounters is one serving-tier cache's observability snapshot.
type CacheCounters struct {
	Enabled   bool   `json:"enabled"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes,omitempty"` // result cache only
}

// ServingStats is the engine's serving-tier observability snapshot:
// the index epoch plus both caches' counters — the payload behind the
// server's /stats endpoint.
type ServingStats struct {
	Epoch  uint64        `json:"epoch"`
	Plan   CacheCounters `json:"plan_cache"`
	Result CacheCounters `json:"result_cache"`
}

// ServingStats snapshots the serving-tier caches and epoch. Cheap:
// counter loads plus one short mutex hold per cache stripe.
func (e *Engine) ServingStats() ServingStats {
	out := ServingStats{Epoch: e.Epoch()}
	if e.plan != nil {
		s := e.plan.Stats()
		out.Plan = CacheCounters{Enabled: true, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
	}
	if e.res != nil {
		s := e.res.Stats()
		out.Result = CacheCounters{Enabled: true, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries, Bytes: s.Bytes}
	}
	return out
}

// SearchPrepared is Search for queries already expressed in the engine's
// normalized value space (e.g. returned by PrepareQuery, or sampled from
// the normalized series). Most callers want Search.
func (e *Engine) SearchPrepared(q []float64, eps float64) ([]Match, error) {
	return e.SearchPreparedCtx(context.Background(), q, eps)
}

// SearchPreparedCtx is SearchPrepared honoring cancellation (see
// SearchCtx) — the serving tier routes admitted prepared-space queries
// through it so queued work dies with the request. Prepared-space
// queries bypass the result cache: its keys are raw query bytes, and a
// prepared query with the same bits as a raw one must not alias its
// answer.
func (e *Engine) SearchPreparedCtx(ctx context.Context, q []float64, eps float64) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if len(q) != e.opt.L {
		return nil, fmt.Errorf("twinsearch: query length %d, engine built for L=%d", len(q), e.opt.L)
	}
	// Same threshold validation as Search: a NaN would pass every
	// eps < 0 guard and silently poison the early-abandoning
	// comparisons (NaN > eps is false, so every window would match).
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("twinsearch: invalid threshold %v", eps)
	}
	return e.searchPreparedCtx(ctx, q, eps)
}

// searchPreparedCtx dispatches a validated, transformed query. Only the
// fanned-out paths (sharded and cluster engines) observe ctx mid-query;
// the single-structure methods check it once up front.
func (e *Engine) searchPreparedCtx(ctx context.Context, q []float64, eps float64) ([]Match, error) {
	if e.cl != nil {
		return e.cl.Search(ctx, q, eps)
	}
	if e.sh != nil {
		return e.sh.SearchCtx(ctx, q, eps)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch e.opt.Method {
	case MethodSweepline:
		return e.sweep.Search(q, eps), nil
	case MethodKVIndex:
		return e.kv.Search(q, eps), nil
	case MethodISAX:
		return e.isx.Search(q, eps), nil
	default:
		// Traced queries run the counter-reporting traversal so the
		// span carries the same attrs the stats path records; the match
		// set is identical either way, and the untraced fast path stays
		// allocation-free.
		if obs.SpanFrom(ctx) != nil {
			_, tsp := obs.StartSpan(ctx, "traverse")
			ms, st := e.tsFrozen().SearchStats(q, eps)
			setStatsAttrs(tsp, st)
			tsp.End()
			return ms, nil
		}
		return e.tsFrozen().Search(q, eps), nil
	}
}

// PrepareQuery maps a raw-space query into the engine's normalized value
// space (identity under NormNone).
func (e *Engine) PrepareQuery(q []float64) []float64 {
	return e.ext.TransformQuery(q)
}

// SearchTopK returns the k nearest subsequences to q under Chebyshev
// distance (ascending), with exact distances filled in. Only TS-Index
// supports it.
func (e *Engine) SearchTopK(q []float64, k int) ([]Match, error) {
	return e.SearchTopKCtx(context.Background(), q, k)
}

// SearchTopKCtx is SearchTopK honoring cancellation (see SearchCtx).
func (e *Engine) SearchTopKCtx(ctx context.Context, q []float64, k int) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.opt.Method != MethodTSIndex {
		return nil, ErrTopKUnsupported
	}
	if len(q) != e.opt.L {
		return nil, fmt.Errorf("twinsearch: query length %d, engine built for L=%d", len(q), e.opt.L)
	}
	ctx, qo := e.beginQuery(ctx, qpTopK)
	tq := e.ext.TransformQuery(q)
	r, err := e.searchCached(ctx, qcache.PathTopK, q, float64(k), 0, func() (qcache.Result, error) {
		ms, err := e.searchTopKPreparedCtx(ctx, tq, k)
		return qcache.Result{Matches: ms}, err
	})
	e.endQuery(qo, err)
	return r.Matches, err
}

// searchTopKPreparedCtx dispatches a transformed top-k query to the
// engine's TS-Index backing.
func (e *Engine) searchTopKPreparedCtx(ctx context.Context, tq []float64, k int) ([]Match, error) {
	if e.cl != nil {
		return e.cl.SearchTopK(ctx, tq, k)
	}
	if e.sh != nil {
		return e.sh.SearchTopKCtx(ctx, tq, k, math.Inf(1))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.tsFrozen().SearchTopK(tq, k), nil
}

// Subsequence returns a copy of the indexed (normalized) window at
// position p — useful for inspecting matches in the engine's value
// space.
func (e *Engine) Subsequence(p int) ([]float64, error) {
	if p < 0 || p+e.opt.L > e.ext.Len() {
		return nil, fmt.Errorf("twinsearch: position %d out of range", p)
	}
	return e.ext.ExtractCopy(p, e.opt.L), nil
}

// Method returns the engine's search method.
func (e *Engine) Method() Method { return e.opt.Method }

// Norm returns the engine's normalization mode.
func (e *Engine) Norm() NormMode { return e.opt.Norm }

// Shards returns the number of index partitions the engine searches in
// parallel: 1 for every unsharded engine (including non-TS-Index
// methods), the effective shard count otherwise.
func (e *Engine) Shards() int {
	if e.cl != nil {
		return e.cl.TotalShards()
	}
	if e.sh != nil {
		return e.sh.NumShards()
	}
	return 1
}

// Cluster exposes the distributed coordinator behind an engine opened
// with Options.Topology (nil for every local engine) — internal/server
// reads it to report role and peer liveness.
func (e *Engine) Cluster() *cluster.Coordinator { return e.cl }

// Workers returns the size of the engine's query executor — the
// worker pool shared by sharded fan-out, SearchBatch, and approximate
// probes (see Options.Workers).
func (e *Engine) Workers() int { return e.ex.Workers() }

// L returns the configured subsequence length.
func (e *Engine) L() int { return e.opt.L }

// SeriesLen returns the number of timestamps in the indexed series.
func (e *Engine) SeriesLen() int { return e.ext.Len() }

// NumSubsequences returns how many windows the engine indexes.
func (e *Engine) NumSubsequences() int {
	return series.NumSubsequences(e.ext.Len(), e.opt.L)
}

// MemoryBytes estimates the total footprint of the index structure —
// heap-resident plus file-mapped bytes (0 for the sweepline, which has
// none). HeapBytes and MappedBytes report the two halves separately.
func (e *Engine) MemoryBytes() int {
	return e.HeapBytes() + e.MappedBytes()
}

// HeapBytes estimates the heap-resident bytes of the index structure:
// everything this process pays for exclusively. A mapped engine's flat
// arrays live in the page cache instead and appear under MappedBytes.
func (e *Engine) HeapBytes() int {
	switch e.opt.Method {
	case MethodKVIndex:
		return e.kv.MemoryBytes() + e.kv.AuxiliaryBytes()
	case MethodISAX:
		return e.isx.MemoryBytes()
	case MethodTSIndex:
		if e.cl != nil {
			return e.cl.MemoryBytes() // local topology entries only
		}
		if e.sh != nil {
			return e.sh.MemoryBytes()
		}
		total := e.tsFrozen().MemoryBytes()
		if e.ts != nil {
			total += e.ts.MemoryBytes() // pointer tree resident for appends
		}
		return total
	default:
		return 0
	}
}

// MappedBytes reports the file-mapped bytes of the index structure:
// arena arrays served straight from an mmap'd saved index
// (Options.MMap). These pages are shared with other processes mapping
// the same file and reclaimable by the kernel, so they are accounted
// separately from HeapBytes. Shards or trees re-frozen after Append
// migrate to the heap and leave this figure.
func (e *Engine) MappedBytes() int {
	if e.opt.Method != MethodTSIndex {
		return 0
	}
	if e.cl != nil {
		return e.cl.MappedBytes() // local topology entries only
	}
	if e.sh != nil {
		return e.sh.MappedBytes()
	}
	return e.tsFrozen().MappedBytes()
}

// PartitionByMean reports whether the engine's shards own mean-sorted
// position runs (see Options.PartitionByMean); always false unsharded.
func (e *Engine) PartitionByMean() bool {
	if e.cl != nil {
		return e.cl.PartitionByMean()
	}
	return e.sh != nil && e.sh.PartitionByMean()
}
