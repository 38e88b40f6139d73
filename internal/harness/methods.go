package harness

import (
	"fmt"
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/isax"
	"twinsearch/internal/kvindex"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
	"twinsearch/internal/sweepline"
)

// MethodID identifies a search method in result rows.
type MethodID int

// The four compared methods, in the paper's presentation order.
const (
	Sweepline MethodID = iota
	KVIndex
	ISAX
	TSIndex
)

// AllMethods lists every method, in presentation order.
var AllMethods = []MethodID{Sweepline, KVIndex, ISAX, TSIndex}

// String implements fmt.Stringer.
func (m MethodID) String() string {
	switch m {
	case Sweepline:
		return "Sweepline"
	case KVIndex:
		return "KV-Index"
	case ISAX:
		return "iSAX"
	case TSIndex:
		return "TS-Index"
	default:
		return fmt.Sprintf("MethodID(%d)", int(m))
	}
}

// searcher is the minimal query interface the runner drives.
type searcher interface {
	// search returns (results, candidates verified).
	search(q []float64, eps float64) (int, int)
}

// built couples a constructed method with its build cost.
type built struct {
	method    MethodID
	s         searcher
	buildTime time.Duration
	memBytes  int
}

type sweepAdapter struct{ s *sweepline.Sweepline }

func (a sweepAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.s.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type kvAdapter struct{ ix *kvindex.Index }

func (a kvAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.ix.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type isaxAdapter struct{ ix *isax.Index }

func (a isaxAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.ix.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type tsAdapter struct{ ix *core.Index }

func (a tsAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.ix.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type shardAdapter struct{ ix *shard.Index }

func (a shardAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.ix.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type frozenAdapter struct{ f *core.Frozen }

func (a frozenAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.f.SearchStats(q, eps)
	return len(ms), st.Candidates
}

// buildSharded constructs the sharded TS-Index with the given partition
// count (≤ 0 = one shard per CPU), executor width (≤ 0 = one worker per
// CPU), and optional explicit boundaries (nil = even split) or
// mean-sorted partitioning, timing construction like buildMethod.
func buildSharded(ext *series.Extractor, l, shards, workers int, boundaries []int, byMean bool) (built, error) {
	start := time.Now()
	ix, err := shard.Build(ext, shard.Config{
		Config: core.Config{L: l}, Shards: shards,
		Boundaries: boundaries, PartitionByMean: byMean, Executor: exec.New(workers),
	})
	if err != nil {
		return built{}, err
	}
	return built{method: TSIndex, s: shardAdapter{ix}, buildTime: time.Since(start),
		memBytes: ix.MemoryBytes()}, nil
}

// buildPointer constructs a single TS-Index and keeps its pointer tree —
// the paper-shaped layout the frozen-layout figure compares against.
func buildPointer(ext *series.Extractor, l int) (built, error) {
	start := time.Now()
	ix, err := core.Build(ext, core.Config{L: l})
	if err != nil {
		return built{}, err
	}
	return built{method: TSIndex, s: tsAdapter{ix}, buildTime: time.Since(start),
		memBytes: ix.MemoryBytes()}, nil
}

// buildFrozen constructs a single TS-Index and compiles it into the
// flat arena, timing the whole pipeline; the pointer tree is dropped.
func buildFrozen(ext *series.Extractor, l int) (built, error) {
	start := time.Now()
	ix, err := core.Build(ext, core.Config{L: l})
	if err != nil {
		return built{}, err
	}
	f := ix.Freeze()
	return built{method: TSIndex, s: frozenAdapter{f}, buildTime: time.Since(start),
		memBytes: f.MemoryBytes()}, nil
}

// SkewedBoundaries builds a deliberately imbalanced partition over
// count windows: the last shard owns frac of them, and the remaining
// shards split what's left evenly (shards < 2 degenerates to a single
// shard owning everything). The skewed-shard experiments use it to
// show executor latency is bounded by total work, not by the hottest
// shard.
func SkewedBoundaries(count, shards int, frac float64) []int {
	if shards < 2 {
		return []int{0, count}
	}
	// Clamp so every shard keeps at least one window: the head shards
	// need shards-1 windows between them, the tail shard needs one.
	head := count - int(float64(count)*frac)
	if head < shards-1 {
		head = shards - 1
	}
	if head > count-1 {
		head = count - 1
	}
	starts := make([]int, shards+1)
	for i := 0; i < shards; i++ {
		starts[i] = i * head / (shards - 1)
	}
	starts[shards] = count
	return starts
}

// buildMethod constructs one method over ext with the paper's default
// structural parameters (§6.1) and the given ℓ and m.
func buildMethod(m MethodID, ext *series.Extractor, l, segments int) (built, error) {
	start := time.Now()
	switch m {
	case Sweepline:
		s := sweepline.New(ext)
		return built{method: m, s: sweepAdapter{s}, buildTime: time.Since(start)}, nil
	case KVIndex:
		ix, err := kvindex.Build(ext, kvindex.Config{L: l})
		if err != nil {
			return built{}, err
		}
		return built{method: m, s: kvAdapter{ix}, buildTime: time.Since(start),
			memBytes: ix.MemoryBytes() + ix.AuxiliaryBytes()}, nil
	case ISAX:
		ix, err := isax.Build(ext, isax.Config{L: l, Segments: segments})
		if err != nil {
			return built{}, err
		}
		return built{method: m, s: isaxAdapter{ix}, buildTime: time.Since(start),
			memBytes: ix.MemoryBytes()}, nil
	case TSIndex:
		// The figures time the arena the engine serves, not the pointer
		// tree it is compiled from.
		return buildFrozen(ext, l)
	default:
		return built{}, fmt.Errorf("harness: unknown method %v", m)
	}
}
