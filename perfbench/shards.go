package main

import (
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// countStats adds a traversal's counters to the request.
func countStats(rt *reqTrace, st core.Stats) {
	rt.count("core.nodes_visited", float64(st.NodesVisited))
	rt.count("core.nodes_pruned", float64(st.NodesPruned))
	rt.count("core.leaves_reached", float64(st.LeavesReached))
	rt.count("core.candidates", float64(st.Candidates))
	rt.count("core.abandons", float64(st.Abandons))
	rt.count("core.results", float64(st.Results))
}

// unitsPerShard is the frontier size of the executor-unit replay.
const unitsPerShard = 4

// shardReplay is the traced run's replica of a sharded engine's index:
// the same data and partitioning on an executor the benchmark owns, so
// its steal counter and work units can be read from outside.
type shardReplay struct {
	sx *shard.Index
	ex *exec.Executor
}

// buildShardReplay builds the replica the way Open builds a sharded
// engine, recording the time as core.build_s.
func buildShardReplay(ds *dataSet, shards int, lo *layerObs) (*shardReplay, error) {
	ex := exec.New(0)
	t0 := time.Now()
	sx, err := shard.Build(series.NewExtractor(ds.series, series.NormGlobal), shard.Config{
		Config: core.Config{L: ds.l}, Shards: shards, Executor: ex,
	})
	if err != nil {
		return nil, err
	}
	lo.add("core.build_s", time.Since(t0).Seconds())
	return &shardReplay{sx: sx, ex: ex}, nil
}

// run replays one range search: the fan-out and barrier
// (shard.traverse), the merge (shard.merge), then, as detail spans, each
// shard's traversal alone (for skew) and the shards' frontier subtrees
// as executor units (for queue wait and the slowest unit).
func (s *shardReplay) run(rt *reqTrace, tq []float64, eps float64, parent string, detail bool) {
	g := s.ex.NewGroup()
	steals := s.ex.Steals()
	var p *shard.PendingSearch
	rt.timed("shard.traverse", parent, detail, func() {
		p = s.sx.QueueSearch(g, tq, eps)
		g.Wait()
	})
	rt.count("exec.steals", float64(s.ex.Steals()-steals))
	var ms []series.Match
	var st core.Stats
	rt.timed("shard.merge", parent, detail, func() { ms, st = p.Resolve() })
	countStats(rt, st)
	rt.count("shard.matches", float64(len(ms)))

	var sum, slowest time.Duration
	for i := 0; i < s.sx.NumShards(); i++ {
		fz := s.sx.Shard(i)
		d := rt.timed("core.shard", "shard.traverse", true, func() { fz.SearchStats(tq, eps) })
		sum += d
		slowest = max(slowest, d)
	}
	if sum > 0 {
		rt.count("shard.skew", float64(slowest)*float64(s.sx.NumShards())/float64(sum))
	}
	s.units(rt, tq, eps)
}

// units runs every shard's frontier subtrees as the benchmark's own
// executor units and records, per unit, its queue wait and span.
func (s *shardReplay) units(rt *reqTrace, tq []float64, eps float64) {
	type unit struct {
		fz                 *core.Frozen
		sub                core.FrozenSubtree
		submit, start, end time.Time
	}
	var us []unit
	for i := 0; i < s.sx.NumShards(); i++ {
		fz := s.sx.Shard(i)
		for _, sub := range fz.Frontier(unitsPerShard) {
			us = append(us, unit{fz: fz, sub: sub})
		}
	}
	g := s.ex.NewGroup()
	for i := range us {
		u := &us[i]
		u.submit = time.Now()
		g.Go(func(*exec.Ctx) {
			u.start = time.Now()
			u.fz.SearchStatsFrom(u.sub, tq, eps)
			u.end = time.Now()
		})
	}
	g.Wait()
	for _, u := range us {
		rt.add("exec.unit", "shard.traverse", u.start, u.end, true)
		rt.count("exec.queue_wait_us", float64(u.start.Sub(u.submit))/float64(time.Microsecond))
		rt.count("exec.units", 1)
	}
}
