package shard

// Batch query fan-out: B validated queries run as (shard, subtree)
// work units where each unit traverses the arena ONCE for the whole
// batch (core.Frozen.SearchStatsBatchFrom / SearchTopKBatchFrom) —
// node bounds stream through the distance kernels once per node per
// unit instead of once per node per query. Per-query results and
// counters are identical to B separate fan-outs; only the work shape
// changes.

import (
	"context"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
)

// PendingBatchSearch holds the per-unit results of one enqueued batch
// range search; Resolve assembles them after the group completes —
// the batch counterpart of PendingSearch.
type PendingBatchSearch struct {
	res [][][][]series.Match // [shard][unit][query] match lists, batch traversal order
	st  [][][]core.Stats     // [shard][unit][query]
	nq  int
}

// QueueSearchBatch enqueues the (shard, subtree) units of one batch
// range search into g and returns a handle to assemble the per-query
// results. Call Resolve only after g.Wait() returns.
func (s *Index) QueueSearchBatch(g *exec.Group, qs [][]float64, eps float64) *PendingBatchSearch {
	s.ensureFrozen()
	return queueSearchBatchUnits(g, nil, s.frozen, s.unitFrontiers(), qs, eps)
}

// queueSearchBatchUnits enqueues the (shard, subtree) units of one
// batch range search over frozen/fr into g — the batch counterpart of
// queueSearchUnits, shared by Index and Subset. A nil ctx never
// cancels.
func queueSearchBatchUnits(g *exec.Group, ctx context.Context, frozen []*core.Frozen, fr [][]core.FrozenSubtree, qs [][]float64, eps float64) *PendingBatchSearch {
	p := &PendingBatchSearch{
		res: make([][][][]series.Match, len(fr)),
		st:  make([][][]core.Stats, len(fr)),
		nq:  len(qs),
	}
	for i, units := range fr {
		p.res[i] = make([][][]series.Match, len(units))
		p.st[i] = make([][]core.Stats, len(units))
		f := frozen[i]
		for j, u := range units {
			g.Go(func(*exec.Ctx) {
				if canceled(ctx) {
					return
				}
				p.res[i][j], p.st[i][j] = f.SearchStatsBatchFrom(u, qs, eps)
			})
		}
	}
	return p
}

// Resolve merges the unit results per query with exactly the merge
// PendingSearch.Resolve applies to a single query: every unit's list
// concatenated, then one sort by start. Entry i of both returns covers
// query i.
func (p *PendingBatchSearch) Resolve() ([][]series.Match, []core.Stats) {
	out := make([][]series.Match, p.nq)
	sts := make([]core.Stats, p.nq)
	var lists [][]series.Match
	for qi := 0; qi < p.nq; qi++ {
		lists = lists[:0]
		for i := range p.res {
			for j := range p.res[i] {
				if p.st[i][j] != nil {
					sts[qi] = addStats(sts[qi], p.st[i][j][qi])
				}
				if p.res[i][j] != nil {
					lists = append(lists, p.res[i][j][qi])
				}
			}
		}
		out[qi] = series.MergeMatches(lists)
		sts[qi].Results = len(out[qi])
	}
	return out, sts
}

// SearchStatsBatch runs one complete batch range search on the index:
// enqueue, wait, merge. Per-query results and counters equal B calls
// to SearchStats.
func (s *Index) SearchStatsBatch(qs [][]float64, eps float64) ([][]series.Match, []core.Stats) {
	s.ensureFrozen()
	g := s.ex.NewGroup()
	p := s.QueueSearchBatch(g, qs, eps)
	g.Wait()
	return p.Resolve()
}

// SearchStatsBatchCtx is Subset's batch range search honoring
// cancellation — the batch counterpart of Subset.SearchStats.
func (s *Subset) SearchStatsBatchCtx(ctx context.Context, qs [][]float64, eps float64) ([][]series.Match, []core.Stats, error) {
	if canceled(ctx) {
		return nil, nil, ctx.Err()
	}
	g := s.ex.NewGroup()
	p := queueSearchBatchUnits(g, ctx, s.frozen, s.unitFrontiers(), qs, eps)
	g.Wait()
	if canceled(ctx) {
		return nil, nil, ctx.Err()
	}
	ms, st := p.Resolve()
	return ms, st, nil
}

// SearchTopKBatch answers B top-k queries with one fan-out: every
// (shard, subtree) unit traverses once for the whole batch, and each
// query carries its own cross-unit pruning bound. Per-query merged
// results equal B calls to SearchTopK.
func (s *Index) SearchTopKBatch(qs [][]float64, k int) [][]series.Match {
	s.ensureFrozen()
	return searchTopKBatchUnits(nil, s.ex, s.frozen, s.unitFrontiers, qs, k)
}

// searchTopKBatchUnits is the batch counterpart of searchTopKUnits:
// one shared bound per query, every unit a batch descent, per-query
// k-way merges of the unit lists.
func searchTopKBatchUnits(ctx context.Context, ex *exec.Executor, frozen []*core.Frozen, fr func() [][]core.FrozenSubtree, qs [][]float64, k int) [][]series.Match {
	nq := len(qs)
	out := make([][]series.Match, nq)
	if k <= 0 || nq == 0 {
		return out
	}
	shared := make([]*core.SharedBound, nq)
	for i := range shared {
		shared[i] = core.NewSharedBound()
	}
	if len(frozen) == 1 {
		return frozen[0].SearchTopKBatchFrom(frozen[0].Root(), qs, k, shared)
	}
	units := fr()
	n := 0
	for _, u := range units {
		n += len(u)
	}
	lists := make([][][]series.Match, n) // [unit][query]
	g := ex.NewGroup()
	at := 0
	for i, us := range units {
		f := frozen[i]
		for _, u := range us {
			slot := at
			at++
			g.Go(func(*exec.Ctx) {
				if canceled(ctx) {
					return
				}
				lists[slot] = f.SearchTopKBatchFrom(u, qs, k, shared)
			})
		}
	}
	g.Wait()
	per := make([][]series.Match, n)
	for qi := 0; qi < nq; qi++ {
		for slot := range lists {
			if lists[slot] != nil {
				per[slot] = lists[slot][qi]
			} else {
				per[slot] = nil
			}
		}
		out[qi] = mergeTopK(per, k)
	}
	return out
}
