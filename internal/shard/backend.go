package shard

// Backend abstracts "something that can answer the five TS-Index search
// paths over a set of shards" — the seam the distributed tier
// (internal/cluster) plugs into. Three implementations exist: the full
// local Index (via Local), a Subset serving an assigned slice of a
// saved index's shards, and cluster's HTTP client talking to a remote
// node that itself wraps a Subset. A coordinator fans one query across
// several Backends whose shard sets partition the saved index and
// recombines with the same deterministic merges the local fan-out uses,
// so the answer never depends on where the shards live.
//
// Contracts shared by every implementation:
//
//   - Queries are in the engine's normalized value space (the caller
//     transforms once; see Engine.PrepareQuery).
//   - Range-style results (Search/Stats/PrefixTree/Approx) are sorted
//     by start position; top-k results by the (dist, start) total
//     order. Result sets from backends over disjoint shard sets are
//     disjoint, so concatenating range lists and sorting once
//     (series.MergeMatches), or k-way merging top-k lists (MergeTopK),
//     reproduces the single-engine order.
//   - SearchPrefixTree reports prefix twins among the backend's indexed
//     starts only — no tail scan. The windows that exist only at the
//     shorter query length belong to no shard; exactly one party (the
//     coordinator, or SearchPrefix on a full local index) scans them.
//   - SearchTopK's bound seeds the traversal's shared pruning bound:
//     subtrees whose lower bound strictly exceeds it are skipped, so a
//     coordinator can broadcast its current k-th threshold to prune
//     remote work. math.Inf(1) means unbounded. Because pruning is on
//     strict inequality — identical to the bound one fan-out unit
//     publishes to another — seeding never changes the merged top-k.
//   - ctx cancels remaining work: queued work units are skipped and
//     remote calls abandoned once ctx is done, and the call returns
//     ctx.Err().
//   - Replica interchangeability: two Backends opened over the same
//     shard set of the same saved index are answer-equivalent — every
//     method returns the same matches AND the same Stats counters for
//     the same arguments, because a saved index freezes tree shape and
//     traversal order. The cluster tier's failover and hedging rest on
//     this: whichever replica answers a unit, the bytes are the same.
//     Implementations must stay deterministic per (index bytes, shard
//     set, query) — no randomized traversal, no time-dependent
//     short-circuits.

import (
	"context"
	"fmt"
	"math"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
)

// Backend is one group of shards answering the five search paths; see
// the package-level contract above.
type Backend interface {
	Search(ctx context.Context, q []float64, eps float64) ([]series.Match, error)
	SearchStats(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error)
	SearchTopK(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error)
	SearchPrefixTree(ctx context.Context, q []float64, eps float64) ([]series.Match, error)
	SearchApprox(ctx context.Context, q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats, error)

	// Windows is the number of indexed window positions the backend
	// serves (coordinators split approximate leaf budgets by it).
	Windows() int
	// ShardIDs lists the global shard indices served, ascending.
	ShardIDs() []int
	// MemoryBytes / MappedBytes report the heap-resident and
	// file-mapped footprints (0 for remote backends, which spend their
	// memory in another process).
	MemoryBytes() int
	MappedBytes() int
}

// MergeTopK k-way merges start-disjoint, (dist, start)-sorted lists and
// returns the first k under that total order — the deterministic top-k
// merge shared with the coordinator.
func MergeTopK(per [][]series.Match, k int) []series.Match {
	return mergeTopK(per, k)
}

// AddStats sums two traversal-counter records field by field — the one
// accumulation every fan-out layer (units→shard, node→coordinator)
// must share, so a new counter cannot be summed in one place and
// dropped in another.
func AddStats(a, b core.Stats) core.Stats {
	return addStats(a, b)
}

// canceled reports whether ctx is already done. Work units poll it
// before traversing — a unit costs microseconds, so unit granularity is
// fine-grained enough for a disconnected client to stop burning
// executor time.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// queueSearchUnits enqueues the (shard, subtree) units of one range
// search over frozen/fr into g — the core of QueueSearch, shared with
// Subset. A nil ctx never cancels.
func queueSearchUnits(g *exec.Group, ctx context.Context, frozen []*core.Frozen, fr [][]core.FrozenSubtree, q []float64, eps float64) *PendingSearch {
	p := &PendingSearch{
		res: make([][][]series.Match, len(fr)),
		st:  make([][]core.Stats, len(fr)),
	}
	for i, units := range fr {
		p.res[i] = make([][]series.Match, len(units))
		p.st[i] = make([]core.Stats, len(units))
		f := frozen[i]
		for j, u := range units {
			g.Go(func(*exec.Ctx) {
				if canceled(ctx) {
					return
				}
				p.res[i][j], p.st[i][j] = f.SearchStatsFrom(u, q, eps)
			})
		}
	}
	return p
}

// searchStatsUnits runs one complete range search over frozen/fr:
// enqueue, wait, merge. direct selects the whole-tree fast path for a
// lone shard — only valid when that shard IS the whole index: a subset
// serving one shard of a larger container must still traverse frontier
// units so its counters (which skip nodes above unit roots) agree with
// the full fan-out's.
func searchStatsUnits(ctx context.Context, ex *exec.Executor, frozen []*core.Frozen, fr func() [][]core.FrozenSubtree, q []float64, eps float64, direct bool) ([]series.Match, core.Stats, error) {
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	sp := obs.SpanFrom(ctx)
	if direct && len(frozen) == 1 {
		tsp := sp.StartChild("traverse")
		ms, st := frozen[0].SearchStats(q, eps)
		setShardAttrs(tsp, st, 0)
		tsp.End()
		return ms, st, nil
	}
	g := ex.NewGroup()
	tsp := sp.StartChild("traverse")
	p := queueSearchUnits(g, ctx, frozen, fr(), q, eps)
	g.Wait()
	if tsp != nil {
		// Per-shard counter subtrees are assembled after the barrier
		// from the already-collected unit stats, so the hot work-unit
		// closures stay untouched by tracing. Unit timings interleave
		// across workers; the shard spans carry counters, not durations.
		tsp.Set("steals", int(g.Steals()))
		for i := range p.st {
			var st core.Stats
			for _, u := range p.st[i] {
				st = addStats(st, u)
			}
			ssp := tsp.StartChild(fmt.Sprintf("shard[%d]", i))
			setShardAttrs(ssp, st, len(p.st[i]))
			ssp.End()
		}
	}
	tsp.End()
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	msp := sp.StartChild("merge")
	ms, st := p.Resolve()
	msp.End()
	return ms, st, nil
}

// setShardAttrs annotates one shard's traversal span with its summed
// counters. units == 0 means the whole-tree direct path. Nil-safe.
func setShardAttrs(sp *obs.Span, st core.Stats, units int) {
	if sp == nil {
		return
	}
	if units > 0 {
		sp.Set("units", units)
	}
	sp.Set("nodes_visited", st.NodesVisited)
	sp.Set("nodes_pruned", st.NodesPruned)
	sp.Set("leaves_reached", st.LeavesReached)
	sp.Set("candidates", st.Candidates)
	sp.Set("abandons", st.Abandons)
	// Results is deliberately omitted: unit stats carry 0 until the
	// merge resolves the final set; the root span reports it.
}

// searchTopKUnits runs one top-k search over frozen/fr with the shared
// pruning bound seeded to bound (math.Inf(1) = unbounded). Seeding only
// tightens the initial threshold; pruning stays on strict inequality,
// so the merged result equals the unseeded traversal's whenever bound
// is an upper bound on the true k-th distance.
func searchTopKUnits(ctx context.Context, ex *exec.Executor, frozen []*core.Frozen, fr func() [][]core.FrozenSubtree, q []float64, k int, bound float64) ([]series.Match, error) {
	if k <= 0 {
		return nil, nil
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	shared := core.NewSharedBound()
	if !math.IsInf(bound, 1) {
		shared.Tighten(bound)
	}
	if len(frozen) == 1 {
		return frozen[0].SearchTopKShared(q, k, shared), nil
	}
	lists := runUnits(ctx, ex, frozen, fr(), func(f *core.Frozen, u core.FrozenSubtree) []series.Match {
		return f.SearchTopKSharedFrom(u, q, k, shared)
	})
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	return mergeTopK(lists, k), nil
}

// runUnits runs search on every (shard, subtree) unit of units as one
// executor group and returns the per-unit lists, shard by shard. Units
// still queued once ctx is done are skipped (their lists stay nil).
func runUnits(ctx context.Context, ex *exec.Executor, frozen []*core.Frozen, units [][]core.FrozenSubtree, search func(*core.Frozen, core.FrozenSubtree) []series.Match) [][]series.Match {
	n := 0
	for _, us := range units {
		n += len(us)
	}
	lists := make([][]series.Match, n)
	g := ex.NewGroup()
	at := 0
	for i, us := range units {
		f := frozen[i]
		for _, u := range us {
			slot := at
			at++
			g.Go(func(*exec.Ctx) {
				if !canceled(ctx) {
					lists[slot] = search(f, u)
				}
			})
		}
	}
	g.Wait()
	return lists
}

// searchPrefixUnits runs the tree half of one prefix search over
// frozen/fr: truncated-bound traversal of every unit, then one
// concatenate-and-sort merge. The tail windows are NOT scanned here —
// the caller decides who scans them exactly once.
func searchPrefixUnits(ctx context.Context, ex *exec.Executor, frozen []*core.Frozen, fr func() [][]core.FrozenSubtree, q []float64, eps float64) ([]series.Match, error) {
	if err := frozen[0].ValidatePrefix(q); err != nil {
		return nil, err
	}
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	if len(frozen) == 1 {
		return frozen[0].SearchPrefixTree(q, eps)
	}
	lists := runUnits(ctx, ex, frozen, fr(), func(f *core.Frozen, u core.FrozenSubtree) []series.Match {
		return f.SearchPrefixTreeFrom(u, q, eps)
	})
	if canceled(ctx) {
		return nil, ctx.Err()
	}
	return series.MergeMatches(lists), nil
}

// searchApproxUnits runs one approximate search over frozen, drawing
// leaves from a single shared budget across the shards.
func searchApproxUnits(ctx context.Context, ex *exec.Executor, frozen []*core.Frozen, q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats, error) {
	if leafBudget <= 0 {
		leafBudget = 1
	}
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	if len(frozen) == 1 {
		ms, st := frozen[0].SearchApprox(q, eps, leafBudget)
		return ms, st, nil
	}
	budget := core.NewLeafBudget(leafBudget)
	per := make([][]series.Match, len(frozen))
	stats := make([]core.Stats, len(frozen))
	g := ex.NewGroup()
	for i, f := range frozen {
		g.Go(func(*exec.Ctx) {
			if canceled(ctx) {
				return
			}
			per[i], stats[i] = f.SearchApproxShared(q, eps, budget)
		})
	}
	g.Wait()
	if canceled(ctx) {
		return nil, core.Stats{}, ctx.Err()
	}
	var st core.Stats
	for _, x := range stats {
		st = addStats(st, x)
	}
	return series.MergeMatches(per), st, nil
}

// --- ctx-aware entry points on the full local index ---

// SearchCtx is Search honoring cancellation: once ctx is done, queued
// work units are skipped and the call returns ctx.Err().
func (s *Index) SearchCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := s.SearchStatsCtx(ctx, q, eps)
	return ms, err
}

// SearchStatsCtx is SearchStats honoring cancellation.
func (s *Index) SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	s.ensureFrozen()
	return searchStatsUnits(ctx, s.ex, s.frozen, s.unitFrontiers, q, eps, true)
}

// SearchTopKCtx is SearchTopK honoring cancellation, with the shared
// pruning bound seeded to bound (math.Inf(1) = unbounded; see Backend).
func (s *Index) SearchTopKCtx(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	s.ensureFrozen()
	return searchTopKUnits(ctx, s.ex, s.frozen, s.unitFrontiers, q, k, bound)
}

// SearchPrefixTreeCtx is the tree half of SearchPrefix honoring
// cancellation: prefix twins among the indexed starts only, no tail
// scan (the Backend contract).
func (s *Index) SearchPrefixTreeCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	s.ensureFrozen()
	return searchPrefixUnits(ctx, s.ex, s.frozen, s.unitFrontiers, q, eps)
}

// SearchApproxCtx is SearchApprox honoring cancellation.
func (s *Index) SearchApproxCtx(ctx context.Context, q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats, error) {
	s.ensureFrozen()
	return searchApproxUnits(ctx, s.ex, s.frozen, q, eps, leafBudget)
}

// Local adapts the full index to the Backend interface — the form a
// coordinator process uses to serve every shard itself, and the
// reference implementation the differential tests compare remote
// topologies against.
type Local struct{ Ix *Index }

var _ Backend = Local{}

// Search implements Backend.
func (l Local) Search(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	return l.Ix.SearchCtx(ctx, q, eps)
}

// SearchStats implements Backend.
func (l Local) SearchStats(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	return l.Ix.SearchStatsCtx(ctx, q, eps)
}

// SearchTopK implements Backend.
func (l Local) SearchTopK(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	return l.Ix.SearchTopKCtx(ctx, q, k, bound)
}

// SearchPrefixTree implements Backend.
func (l Local) SearchPrefixTree(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	return l.Ix.SearchPrefixTreeCtx(ctx, q, eps)
}

// SearchApprox implements Backend.
func (l Local) SearchApprox(ctx context.Context, q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats, error) {
	return l.Ix.SearchApproxCtx(ctx, q, eps, leafBudget)
}

// Windows implements Backend.
func (l Local) Windows() int { return l.Ix.Len() }

// ShardIDs implements Backend.
func (l Local) ShardIDs() []int {
	ids := make([]int, l.Ix.NumShards())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// MemoryBytes implements Backend.
func (l Local) MemoryBytes() int { return l.Ix.MemoryBytes() }

// MappedBytes implements Backend.
func (l Local) MappedBytes() int { return l.Ix.MappedBytes() }
