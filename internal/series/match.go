package series

import (
	"cmp"
	"math/bits"
	"slices"
)

// Match is a twin subsequence hit: the 0-based start position of the
// matching window in the indexed series and its Chebyshev distance to the
// query. Search implementations that skip the exact distance (they only
// prove d ≤ ε) report Dist = -1.
type Match struct {
	Start int
	Dist  float64
}

// Radix sort geometry: digits of radixBits bits, so a series of up to
// 2^22 windows orders in at most two passes.
const (
	radixBits = 11
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
)

// radixCutoff is the length below which SortMatches keeps the
// comparison sort. Timed against each other on random starts over a
// 200k-window span (BenchmarkSortMatchesCutoff, repeated runs on a
// 2-vCPU Xeon), the two sorts tie near 96 matches, and every run put
// the crossover between 64 and 128: below it the radix sort's fixed
// cost (a 2048-bucket histogram per pass and a scratch buffer)
// outweighs the comparison sort's insertion-sort blocks.
const radixCutoff = 96

// SortMatches orders matches by start position in place, stably; all
// search methods in this repository report results in this canonical
// order so result sets are directly comparable. Index traversals emit
// positions in leaf order, which is arbitrary with respect to start
// position, and loose thresholds can make the result set a
// double-digit percentage of all windows, so large sets take an LSD
// radix sort on Start — linear in the set size, with only as many
// passes as the largest start needs — and carry Dist along. Every
// fan-out layer (work units, shards, cluster nodes) therefore merges by
// concatenating its lists and sorting once (MergeMatches). Empty and
// single-element sets return before any sorting: the no-match fast
// path is held to zero allocations (see BenchmarkTraceDisabled).
func SortMatches(ms []Match) {
	if len(ms) < 2 {
		return
	}
	if len(ms) < radixCutoff || !radixSort(ms) {
		comparisonSort(ms)
	}
}

// comparisonSort is SortMatches' path for short or negative-start sets:
// a stable comparison sort on Start.
func comparisonSort(ms []Match) {
	slices.SortStableFunc(ms, func(a, b Match) int { return cmp.Compare(a.Start, b.Start) })
}

// radixSort is SortMatches' linear path: a stable LSD radix sort on
// Start, ping-ponging between ms and one scratch buffer, each pass
// counting its digit into one stack histogram. It reports false,
// leaving ms untouched, when a start is negative: the digits assume
// non-negative keys, and the comparison sort takes those sets.
func radixSort(ms []Match) bool {
	maxStart := 0
	for _, m := range ms {
		if m.Start < 0 {
			return false
		}
		maxStart = max(maxStart, m.Start)
	}
	passes := (bits.Len(uint(maxStart)) + radixBits - 1) / radixBits
	var c [radixSize]int
	src, dst := ms, make([]Match, len(ms))
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		clear(c[:])
		for _, m := range src {
			c[(uint(m.Start)>>shift)&radixMask]++
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, m := range src {
			d := (uint(m.Start) >> shift) & radixMask
			dst[c[d]] = m
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ms[0] {
		copy(ms, src)
	}
	return true
}

// MergeMatches concatenates start-disjoint match lists and orders the
// result by start — the one range-style merge every fan-out layer
// (units→shard, shard→index, node→coordinator) uses, whatever the
// partition scheme. The lists need not be sorted themselves. It returns
// nil when every list is empty.
func MergeMatches(lists [][]Match) []Match {
	total := 0
	for _, ms := range lists {
		total += len(ms)
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, 0, total)
	for _, ms := range lists {
		out = append(out, ms...)
	}
	SortMatches(out)
	return out
}

// MatchStarts projects the start positions of ms.
func MatchStarts(ms []Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Start
	}
	return out
}
