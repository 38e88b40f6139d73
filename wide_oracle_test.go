package twinsearch

// Wide-answer oracle: at a loose threshold a range answer covers a large
// share of all windows, so the merge's radix sort (not only its
// small-set comparison fallback) orders it. Every sharded and clustered
// tier must then return exactly the brute-force sweepline answer —
// Start and Dist bits, order included — on each range path. The other
// differential suites compare tier against tier; this one compares each
// tier against an answer no index produced.

import (
	"fmt"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/sweepline"
)

func TestWideAnswersMatchBruteForce(t *testing.T) {
	const (
		n      = 30000
		l      = 64
		short  = 40    // SearchShorter query length
		wide   = 10000 // the loose threshold's answers must exceed this
		tight  = 0.3   // narrow answers: hundreds of matches
		loose  = 1.2   // wide answers: over 10k matches each
		shards = 4
	)
	data := datasets.RandomWalk(5, n)
	ext := series.NewExtractor(data, series.NormGlobal)
	brute := sweepline.New(ext)
	queries := datasets.Queries(data, 17, 3, l)

	open := func(o Options) *Engine {
		t.Helper()
		eng, err := Open(data, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	ranged := open(Options{L: l, Shards: shards})
	engines := map[string]*Engine{
		"range":   ranged,
		"mean":    open(Options{L: l, Shards: shards, PartitionByMean: true}),
		"cluster": open(Options{L: l, Topology: writeTopologyFor(t, ranged, shards, 2), MMap: true}),
	}

	check := func(t *testing.T, what string, got, want []Match) {
		t.Helper()
		if !matchListsEq(got, want) {
			t.Fatalf("%s: %d matches, brute force has %d (or they differ in order or bits)", what, len(got), len(want))
		}
	}
	for _, eps := range []float64{tight, loose} {
		want := make([][]Match, len(queries))
		for i, q := range queries {
			want[i] = brute.Search(ext.TransformQuery(q), eps)
			if eps == loose && len(want[i]) <= wide {
				t.Fatalf("query %d at eps=%v: %d matches, need over %d to reach the radix path", i, eps, len(want[i]), wide)
			}
		}
		for name, eng := range engines {
			t.Run(fmt.Sprintf("%s/eps=%v", name, eps), func(t *testing.T) {
				for i, q := range queries {
					ms, err := eng.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("Search query %d", i), ms, want[i])

					ms, st, err := eng.SearchStats(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("SearchStats query %d", i), ms, want[i])
					if st.Results != len(ms) {
						t.Fatalf("SearchStats query %d: Results=%d for %d matches", i, st.Results, len(ms))
					}

					ms, err = eng.SearchShorter(q[:short], eps)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("SearchShorter query %d", i), ms, brute.Search(ext.TransformQuery(q[:short]), eps))
				}
				for i, r := range eng.SearchBatch(queries, eps, 0) {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					check(t, fmt.Sprintf("SearchBatch query %d", i), r.Matches, want[i])
				}
			})
		}
	}
}
