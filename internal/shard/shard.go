// Package shard implements a sharded parallel TS-Index: the window
// position space [0, N−ℓ] is split into P partitions, one index is
// built per partition concurrently, and queries run as fine-grained
// (shard, subtree) work units on a work-stealing executor
// (internal/exec) — the data-partitioning strategy ParIS/MESSI apply
// to iSAX, transplanted onto the paper's TS-Index, with MESSI-style
// work queues instead of one goroutine per shard.
//
// After construction every shard is FROZEN: the pointer tree is
// compiled into core.Frozen's flat structure-of-arrays arena (packed
// MBTS bounds, index-range children, one flat positions array) and the
// pointer form is dropped. All queries traverse the arenas; Insert
// thaws the owning shard back to pointer form and the next search
// re-freezes it. Freezing changes only the memory layout, never the
// answer set: every frozen traversal replicates its pointer
// counterpart step for step.
//
// Two partitioning schemes are supported. The default splits positions
// into contiguous ranges. Config.PartitionByMean instead sorts positions
// by window mean and hands each shard an equal run — twins have means
// within ε of each other, so mean-neighbours pack into tighter per-shard
// MBTS and prune more. Both merge range answers the same way: every
// unit's list is concatenated and the whole answer is ordered by one
// linear-time series.SortMatches, so the mean scheme costs no extra
// merge work.
package shard

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
)

// Config parameterizes a sharded build.
type Config struct {
	// Config is the per-shard TS-Index configuration.
	core.Config
	// Shards is the number of partitions; ≤ 0 selects GOMAXPROCS. The
	// effective count never exceeds the number of windows.
	Shards int
	// BulkLoad selects bottom-up construction for every shard.
	BulkLoad bool
	// Boundaries, when non-nil, fixes the contiguous partition
	// explicitly: entry i and i+1 delimit shard i's position range, so
	// it must be strictly increasing from 0 to the window count, and its
	// length must agree with Shards when both are set. Benchmarks and
	// tests use it to build deliberately skewed shards; the default is
	// an even split. Incompatible with PartitionByMean.
	Boundaries []int
	// PartitionByMean assigns positions to shards by window mean rather
	// than contiguously: positions are sorted by mean (first normalized
	// value under per-subsequence normalization, where every mean is
	// zero) and split into equal-count runs. Per-shard MBTS get tighter
	// — a shard encloses look-alike windows instead of whatever happened
	// to be adjacent — so searches prune more. Range answers merge the
	// same way under either scheme.
	PartitionByMean bool
	// Executor runs the build and query work units; nil selects the
	// process-wide default (GOMAXPROCS workers).
	Executor *exec.Executor
}

// Index is a sharded TS-Index over one series.
type Index struct {
	ext *series.Extractor
	l   int
	// frozen holds each shard's arena — the form every query traverses.
	frozen []*core.Frozen
	// pointer[i] is shard i thawed for insertion; nil while the shard is
	// frozen-only. Once a shard is thawed it stays resident (repeated
	// Insert/refreeze cycles then skip the thaw).
	pointer []*core.Index
	byMean  bool
	// starts has len(shards)+1 entries in contiguous mode; shard i owns
	// window positions [starts[i], starts[i+1]). nil under
	// PartitionByMean.
	starts []int
	// cuts has len(shards)-1 entries under PartitionByMean: shard i+1's
	// smallest window-mean key. Insert routes new positions by key.
	cuts []float64
	ex   *exec.Executor

	// Refreeze bookkeeping: Insert marks shards dirty; the next search
	// re-freezes them before traversing (ensureFrozen). Insert must not
	// run concurrently with searches, so dirtyShard needs no lock of its
	// own; the atomic dirty flag publishes the writes and mu serializes
	// racing searches.
	dirty      atomic.Bool
	dirtyShard []bool
	mu         sync.Mutex

	// units caches each shard's subtree frontier — the (shard, subtree)
	// work units a query enqueues. Refreezing invalidates it; concurrent
	// searches recompute it racily but deterministically, so whichever
	// Store wins is equivalent.
	units atomic.Pointer[[][]core.FrozenSubtree]
}

// Build partitions the position space, constructs every shard on the
// executor, and freezes each shard's tree into its flat arena. With
// Shards resolving to 1 the result is a single frozen index behind the
// fan-out API — bit-identical answers either way.
func Build(ext *series.Extractor, cfg Config) (*Index, error) {
	if cfg.L <= 0 {
		return nil, fmt.Errorf("shard: invalid subsequence length %d", cfg.L)
	}
	count := series.NumSubsequences(ext.Len(), cfg.L)
	if count == 0 {
		return nil, fmt.Errorf("shard: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	if cfg.PartitionByMean && cfg.Boundaries != nil {
		return nil, fmt.Errorf("shard: PartitionByMean and explicit Boundaries are mutually exclusive")
	}

	ex := cfg.Executor
	if ex == nil {
		ex = exec.Default()
	}

	s := &Index{ext: ext, l: cfg.L, byMean: cfg.PartitionByMean, ex: ex}

	var runs [][]int32 // mean mode: each shard's position run
	if cfg.PartitionByMean {
		p := cfg.Shards
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		if p > count {
			p = count
		}
		runs, s.cuts = meanRuns(ext, cfg.L, count, p)
	} else if cfg.Boundaries != nil {
		if err := validateBoundaries(cfg.Boundaries, cfg.Shards, count); err != nil {
			return nil, err
		}
		s.starts = append([]int(nil), cfg.Boundaries...)
	} else {
		p := cfg.Shards
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		if p > count {
			p = count
		}
		s.starts = make([]int, p+1)
		for i := range s.starts {
			s.starts[i] = i * count / p
		}
	}
	p := len(runs)
	if !cfg.PartitionByMean {
		p = len(s.starts) - 1
	}

	s.frozen = make([]*core.Frozen, p)
	s.pointer = make([]*core.Index, p)
	s.dirtyShard = make([]bool, p)
	errs := make([]error, p)
	ex.ForEach(p, func(i int) {
		var ix *core.Index
		var err error
		switch {
		case cfg.PartitionByMean && cfg.BulkLoad:
			ix, err = core.BuildBulkPositions(ext, cfg.Config, runs[i])
		case cfg.PartitionByMean:
			ix, err = core.BuildPositions(ext, cfg.Config, runs[i])
		case cfg.BulkLoad:
			ix, err = core.BuildBulkRange(ext, cfg.Config, s.starts[i], s.starts[i+1])
		default:
			ix, err = core.BuildRange(ext, cfg.Config, s.starts[i], s.starts[i+1])
		}
		if err != nil {
			errs[i] = err
			return
		}
		// Freeze inside the same work unit (arenas compile in parallel)
		// and let the pointer tree go: the arena is the index now.
		s.frozen[i] = ix.Freeze()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
	}
	return s, nil
}

// windowKey is the mean-partition sort/routing key of one window: the
// window mean, or its first normalized value under per-subsequence
// normalization (where every mean is zero). It is the single key
// definition — meanRuns derives the partition and the routing cuts
// from it, and routeShard applies it to inserts — so a window always
// routes to the shard its key sorted into, bit for bit. buf is scratch
// of length l, used only under per-subsequence normalization (pass nil
// otherwise).
func windowKey(ext *series.Extractor, p, l int, buf []float64) float64 {
	if ext.Mode() == series.NormPerSubsequence {
		return ext.Extract(p, l, buf)[0]
	}
	data := ext.Data()
	var sum float64
	for _, v := range data[p : p+l] {
		sum += v
	}
	return sum / float64(l)
}

// meanRuns sorts all window positions by key and splits them into p
// equal-count runs, returning the runs and the p−1 routing cut keys
// (run i+1's smallest key). Keys come from windowKey — the exact
// function inserts route by — rather than a prefix-sum shortcut, so a
// key landing on a cut can never round differently at build time than
// at routing time.
func meanRuns(ext *series.Extractor, l, count, p int) ([][]int32, []float64) {
	keys := make([]float64, count)
	var buf []float64
	if ext.Mode() == series.NormPerSubsequence {
		buf = make([]float64, l)
	}
	for i := 0; i < count; i++ {
		keys[i] = windowKey(ext, i, l, buf)
	}
	order := make([]int32, count)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if ka, kb := keys[order[a]], keys[order[b]]; ka != kb {
			return ka < kb
		}
		return order[a] < order[b] // total order: runs are deterministic
	})
	runs := make([][]int32, p)
	cuts := make([]float64, p-1)
	for i := 0; i < p; i++ {
		lo, hi := i*count/p, (i+1)*count/p
		runs[i] = order[lo:hi:hi]
		if i > 0 {
			cuts[i-1] = keys[order[lo]]
		}
	}
	return runs, cuts
}

// validateBoundaries rejects partitions that don't cover [0, count)
// with strictly increasing non-empty ranges.
func validateBoundaries(b []int, shards, count int) error {
	if len(b) < 2 {
		return fmt.Errorf("shard: %d boundary entries delimit no shards", len(b))
	}
	if shards != 0 && shards != len(b)-1 {
		return fmt.Errorf("shard: %d boundary entries delimit %d shards, Config.Shards says %d", len(b), len(b)-1, shards)
	}
	if b[0] != 0 {
		return fmt.Errorf("shard: first boundary %d, want 0", b[0])
	}
	if b[len(b)-1] != count {
		return fmt.Errorf("shard: last boundary %d, series has %d windows", b[len(b)-1], count)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return fmt.Errorf("shard: boundary %d (%d) not after boundary %d (%d)", i, b[i], i-1, b[i-1])
		}
	}
	return nil
}

// Executor returns the executor the index schedules its queries on.
func (s *Index) Executor() *exec.Executor { return s.ex }

// PartitionByMean reports whether shards own mean-sorted runs rather
// than contiguous position ranges.
func (s *Index) PartitionByMean() bool { return s.byMean }

// ensureFrozen re-freezes any shards Insert has thawed and mutated.
// Hot path cost is one atomic load; the mutex only serializes searches
// racing to refreeze after an insertion batch (Insert itself must not
// run concurrently with searches).
func (s *Index) ensureFrozen() {
	if !s.dirty.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty.Load() {
		return
	}
	for i, d := range s.dirtyShard {
		if d {
			s.frozen[i] = s.pointer[i].Freeze()
			s.dirtyShard[i] = false
		}
	}
	s.units.Store(nil)
	s.dirty.Store(false)
}

// unitFrontiers returns the cached (shard → subtrees) split,
// recomputing it after insertion invalidated the cache. The per-shard
// target over-provisions units (4×) relative to the widest pool that
// could usefully run them — the index's own executor or the machine
// (SearchBatch may bring a dedicated pool wider than the engine's; the
// work is CPU-bound, so GOMAXPROCS caps useful width) — giving
// stealing slack to even out skewed shards.
func (s *Index) unitFrontiers() [][]core.FrozenSubtree {
	if u := s.units.Load(); u != nil {
		return *u
	}
	p := len(s.frozen)
	w := s.ex.Workers()
	if g := runtime.GOMAXPROCS(0); g > w {
		w = g
	}
	per := 1
	if t := 4 * w; t > p {
		per = (t + p - 1) / p
	}
	fr := make([][]core.FrozenSubtree, p)
	for i, f := range s.frozen {
		fr[i] = f.Frontier(per)
	}
	s.units.Store(&fr)
	return fr
}

// Search returns all twin subsequences of q at threshold eps, in start
// order — identical to core.Index.Search over an unsharded index.
func (s *Index) Search(q []float64, eps float64) []series.Match {
	ms, _ := s.SearchStats(q, eps)
	return ms
}

// SearchStats is Search with traversal counters summed across work
// units. Counter values differ from a single index's (each shard's
// tree packs differently, and nodes above a unit's subtree root are
// never visited); the match set does not.
func (s *Index) SearchStats(q []float64, eps float64) ([]series.Match, core.Stats) {
	ms, st, _ := s.SearchStatsCtx(nil, q, eps) // nil ctx never cancels
	return ms, st
}

// PendingSearch holds the per-unit results of one enqueued range
// search; Resolve assembles them after the group completes. It lets
// Engine.SearchBatch fuse many queries into one executor group — every
// (query, shard, subtree) unit is a peer in the same pool — instead of
// nesting a query pool above a shard pool.
type PendingSearch struct {
	res [][][]series.Match // [shard][unit] match lists, traversal order
	st  [][]core.Stats     // [shard][unit]
}

// QueueSearch enqueues the (shard, subtree) units of one range search
// into g and returns a handle to assemble the result. Call Resolve
// only after g.Wait() returns.
func (s *Index) QueueSearch(g *exec.Group, q []float64, eps float64) *PendingSearch {
	s.ensureFrozen()
	return queueSearchUnits(g, nil, s.frozen, s.unitFrontiers(), q, eps)
}

// Resolve merges the unit results deterministically: every unit's list
// is concatenated and the whole answer sorted by start once. Units and
// shards own disjoint positions, so the order depends only on the
// answer set — never on how the trees were split or the positions
// partitioned.
func (p *PendingSearch) Resolve() ([]series.Match, core.Stats) {
	var st core.Stats
	var lists [][]series.Match
	for i := range p.res {
		lists = append(lists, p.res[i]...)
		for _, u := range p.st[i] {
			st = addStats(st, u)
		}
	}
	ms := series.MergeMatches(lists)
	st.Results = len(ms)
	return ms, st
}

func addStats(a, b core.Stats) core.Stats {
	a.NodesVisited += b.NodesVisited
	a.NodesPruned += b.NodesPruned
	a.LeavesReached += b.LeavesReached
	a.Candidates += b.Candidates
	a.Abandons += b.Abandons
	a.Results += b.Results
	return a
}

// SearchTopK returns the k nearest subsequences under Chebyshev
// distance in ascending (distance, start) order — identical to
// core.Index.SearchTopK. Every unit's traversal shares one pruning
// bound (the best k-th distance any unit has admitted so far), and the
// per-unit lists are combined by a k-way merge.
func (s *Index) SearchTopK(q []float64, k int) []series.Match {
	ms, _ := s.SearchTopKCtx(nil, q, k, math.Inf(1))
	return ms
}

// mergeTopK k-way-merges start-disjoint, distance-sorted lists and
// returns the first k items under the (dist, start) total order.
func mergeTopK(per [][]series.Match, k int) []series.Match {
	h := make(distHeap, 0, len(per))
	for i, ms := range per {
		if len(ms) > 0 {
			h = append(h, mergeItem{list: i, m: ms[0]})
		}
	}
	heap.Init(&h)
	var out []series.Match
	next := make([]int, len(per))
	for h.Len() > 0 && len(out) < k {
		top := h[0]
		out = append(out, top.m)
		next[top.list]++
		if n := next[top.list]; n < len(per[top.list]) {
			h[0] = mergeItem{list: top.list, m: per[top.list][n]}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

type mergeItem struct {
	list int
	m    series.Match
}

// distHeap is a min-heap under the (dist, start) total order.
type distHeap []mergeItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].m.Dist != h[j].m.Dist {
		return h[i].m.Dist < h[j].m.Dist
	}
	return h[i].m.Start < h[j].m.Start
}
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// SearchPrefix answers a query shorter than the indexed length (see
// core.Index.SearchPrefix): the truncated-bounds traversal fans across
// (shard, subtree) units and the tail windows that exist only at the
// shorter length are scanned once, here.
func (s *Index) SearchPrefix(q []float64, eps float64) ([]series.Match, error) {
	return s.SearchPrefixCtx(nil, q, eps)
}

// SearchPrefixCtx is SearchPrefix honoring cancellation: ctx flows into
// the fanned-out tree traversal, and the tail scan is skipped when the
// context has already ended. A nil ctx never cancels.
func (s *Index) SearchPrefixCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	tree, err := s.SearchPrefixTreeCtx(ctx, q, eps)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// The merged list is in position order and the tail starts extend it.
	return core.ScanPrefixTail(s.ext, s.l, q, eps, tree), nil
}

// SearchApprox probes at most leafBudget nearest leaves across all
// shards and returns a possibly incomplete subset of the twins — the
// sharded counterpart of core.Frozen.SearchApprox. The budget is one
// shared atomic allowance drawn by every shard's best-first traversal,
// not a per-shard split: shards whose leaves sit closest to the query
// spend more of it, so a skewed partition no longer burns budget on
// shards with nothing nearby. Which shard draws a contended probe
// depends on scheduling, so the subset may vary between runs; every
// match is a true twin and total leaves probed never exceed the budget.
func (s *Index) SearchApprox(q []float64, eps float64, leafBudget int) ([]series.Match, core.Stats) {
	ms, st, _ := s.SearchApproxCtx(nil, q, eps, leafBudget)
	return ms, st
}

// Insert adds the window starting at p to the shard owning that
// position: under the contiguous partition the range owner (positions
// past the current end extend the last shard — the streaming-append
// path); under PartitionByMean the shard whose key range covers the
// window's mean. The owning shard is thawed back to pointer form if
// needed and marked dirty; the next search re-freezes it. Do not call
// concurrently with searches.
func (s *Index) Insert(p int) {
	i := s.routeShard(p)
	if s.pointer[i] == nil {
		s.pointer[i] = s.frozen[i].Thaw()
	}
	s.pointer[i].Insert(p)
	s.dirtyShard[i] = true
	s.dirty.Store(true)
	s.units.Store(nil)
}

// routeShard picks the shard that owns (or will own) position p.
func (s *Index) routeShard(p int) int {
	if s.byMean {
		var buf []float64
		if s.ext.Mode() == series.NormPerSubsequence {
			buf = make([]float64, s.l)
		}
		k := windowKey(s.ext, p, s.l, buf)
		// Shard i+1 starts at cuts[i]; route to the last shard whose
		// lower bound is ≤ k.
		return sort.Search(len(s.cuts), func(j int) bool { return s.cuts[j] > k })
	}
	last := len(s.starts) - 1
	if p >= s.starts[last] {
		s.starts[last] = p + 1
		return len(s.frozen) - 1
	}
	// Owning shard i satisfies starts[i] ≤ p < starts[i+1].
	return sort.SearchInts(s.starts, p+1) - 1
}

// Len returns the number of indexed windows across all shards.
func (s *Index) Len() int {
	// ensureFrozen first: the arenas are then authoritative, and the
	// dirty-flag handshake orders this read against any concurrent
	// search's refreeze (plain reads of frozen[] would race with it).
	s.ensureFrozen()
	total := 0
	for _, f := range s.frozen {
		total += f.Len()
	}
	return total
}

// L returns the indexed subsequence length.
func (s *Index) L() int { return s.l }

// NumShards returns the shard count.
func (s *Index) NumShards() int { return len(s.frozen) }

// Shard returns the frozen arena of shard i (re-freezing first if an
// insertion left it stale).
func (s *Index) Shard(i int) *core.Frozen {
	s.ensureFrozen()
	return s.frozen[i]
}

// Range returns the contiguous position range shard i owns, or ok=false
// under PartitionByMean (where shards own interleaved runs).
func (s *Index) Range(i int) (lo, hi int, ok bool) {
	if s.byMean {
		return 0, 0, false
	}
	return s.starts[i], s.starts[i+1], true
}

// Extractor exposes the extractor the index was built over.
func (s *Index) Extractor() *series.Extractor { return s.ext }

// MemoryBytes sums the per-shard heap-resident arena footprints, plus
// the pointer trees of any shards thawed for insertion (both forms are
// resident on the streaming path). File-mapped shard arenas are counted
// by MappedBytes instead.
func (s *Index) MemoryBytes() int {
	s.ensureFrozen() // order the frozen[] reads against refreezes
	total := 0
	for i, f := range s.frozen {
		total += f.MemoryBytes()
		if s.pointer[i] != nil {
			total += s.pointer[i].MemoryBytes()
		}
	}
	return total
}

// MappedBytes sums the file-mapped footprints of the shard arenas: the
// flat arrays of every shard still backed by an mmap'd region (see
// OpenArena). Shards re-frozen after Insert move their arrays to the
// heap and drop out of this figure.
func (s *Index) MappedBytes() int {
	s.ensureFrozen()
	total := 0
	for _, f := range s.frozen {
		total += f.MappedBytes()
	}
	return total
}

// CheckInvariants validates every shard's structural invariants plus
// the partition invariants (checkPartition). Load skips the per-arena
// half — core.LoadFrozen / core.Load validated each shard stream
// moments earlier — and runs only checkPartition.
func (s *Index) CheckInvariants() error {
	s.ensureFrozen()
	for i, f := range s.frozen {
		if err := f.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return s.checkPartition()
}

// checkPartitionShape validates the O(shards) partition invariants:
// contiguous ranges cover [0, count) in order with per-shard window
// counts matching their range widths (contiguous mode), mean-routing
// cuts are sorted and shard sizes sum to the window count (mean mode).
// The zero-copy open path (OpenArena) stops here — walking every
// position of a mapped multi-gigabyte index would defeat the cheap
// open — while checkPartition adds the full ownership scan.
func (s *Index) checkPartitionShape() error {
	s.ensureFrozen()
	p := len(s.frozen)
	count := series.NumSubsequences(s.ext.Len(), s.l)
	total := 0
	for _, f := range s.frozen {
		total += f.Len()
	}
	if total != count {
		return fmt.Errorf("shard: shards hold %d windows, series has %d", total, count)
	}
	if s.byMean {
		if len(s.cuts) != p-1 {
			return fmt.Errorf("shard: %d mean cuts for %d shards", len(s.cuts), p)
		}
		for i := 1; i < len(s.cuts); i++ {
			if s.cuts[i] < s.cuts[i-1] {
				return fmt.Errorf("shard: mean cut %d (%g) below cut %d (%g)", i, s.cuts[i], i-1, s.cuts[i-1])
			}
		}
		return nil
	}
	if len(s.starts) != p+1 {
		return fmt.Errorf("shard: %d boundaries for %d shards", len(s.starts), p)
	}
	if s.starts[0] != 0 {
		return fmt.Errorf("shard: first range starts at %d, want 0", s.starts[0])
	}
	if got := s.starts[p]; got != count {
		return fmt.Errorf("shard: ranges end at %d, series has %d windows", got, count)
	}
	for i, f := range s.frozen {
		if s.starts[i] >= s.starts[i+1] {
			return fmt.Errorf("shard %d: empty or inverted range [%d, %d)", i, s.starts[i], s.starts[i+1])
		}
		if got, want := f.Len(), s.starts[i+1]-s.starts[i]; got != want {
			return fmt.Errorf("shard %d: holds %d windows, range [%d, %d) spans %d", i, got, s.starts[i], s.starts[i+1], want)
		}
	}
	return nil
}

// checkPartition validates the partition invariants alone: the shape
// checks above plus the full ownership scan — every window position
// owned by exactly one shard, inside its owner's range in contiguous
// mode.
func (s *Index) checkPartition() error {
	if err := s.checkPartitionShape(); err != nil {
		return err
	}
	count := series.NumSubsequences(s.ext.Len(), s.l)
	seen := make([]bool, count)
	for i, f := range s.frozen {
		for _, pos := range f.Positions() {
			if int(pos) >= count {
				return fmt.Errorf("shard %d: position %d beyond %d windows", i, pos, count)
			}
			if seen[pos] {
				return fmt.Errorf("shard %d: position %d owned twice", i, pos)
			}
			seen[pos] = true
			if !s.byMean && (int(pos) < s.starts[i] || int(pos) >= s.starts[i+1]) {
				return fmt.Errorf("shard %d: position %d outside range [%d, %d)", i, pos, s.starts[i], s.starts[i+1])
			}
		}
	}
	for pos, ok := range seen {
		if !ok {
			return fmt.Errorf("shard: position %d owned by no shard", pos)
		}
	}
	return nil
}
