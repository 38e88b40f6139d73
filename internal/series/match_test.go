package series

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortOracle is the reference order: a stable comparison sort on Start.
func sortOracle(ms []Match) []Match {
	want := append([]Match(nil), ms...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Start < want[j].Start })
	return want
}

// sameBits reports whether a and b hold the same matches in the same
// order, Dist compared bit for bit (so -1 sentinels and NaN payloads
// must survive the sort unchanged).
func sameBits(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestSortMatchesShapes pins the cases the radix path must get right on
// both sides of the cutoff: ties broken by input order, zero starts,
// starts needing more than two digit passes (above 2^32), and input
// that is already sorted or reversed.
func TestSortMatchesShapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, 5000} {
		shapes := map[string]func(i int) int{
			"random":   func(int) int { return r.Intn(200000) },
			"ties":     func(int) int { return r.Intn(8) },
			"zero":     func(int) int { return 0 },
			"huge":     func(int) int { return 1<<40 + r.Intn(1<<34) },
			"sorted":   func(i int) int { return 3 * i },
			"reversed": func(i int) int { return 3 * (n - i) },
		}
		for name, start := range shapes {
			ms := make([]Match, n)
			for i := range ms {
				ms[i] = Match{Start: start(i), Dist: float64(i)}
			}
			want := sortOracle(ms)
			SortMatches(ms)
			if !sameBits(ms, want) {
				t.Fatalf("n=%d %s: order differs from the stable oracle", n, name)
			}
		}
	}
}

// TestMergeMatches checks the fan-out merge: unsorted, start-disjoint
// lists come back as one start-ordered list, and all-empty input stays
// nil (the no-match answer every tier reports).
func TestMergeMatches(t *testing.T) {
	if got := MergeMatches([][]Match{nil, {}}); got != nil {
		t.Fatalf("empty lists merged to %v, want nil", got)
	}
	lists := [][]Match{{{9, 0.9}, {1, 0.1}}, nil, {{4, -1}, {0, 0}, {7, 0.7}}}
	want := []Match{{0, 0}, {1, 0.1}, {4, -1}, {7, 0.7}, {9, 0.9}}
	if got := MergeMatches(lists); !sameBits(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// FuzzSortMatches checks SortMatches against the stable comparison
// oracle. Each 8-byte record of raw becomes one match: a 32-bit start
// and a float32 distance. Shape bits pick how starts are derived
// (signed, so negatives reach the comparison path; confined to eight
// values, so ties are common and stability carries the order; pushed
// above 2^32, so more than two digit passes run; or spread over a
// 200k-window span) and whether the input is pre-sorted or reversed
// before the call. Records are kept small because the fuzzer minimizes
// every new input it finds interesting, byte by byte.
func FuzzSortMatches(f *testing.F) {
	rec := func(start uint32, dist float32) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:], start)
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(dist))
		return b[:]
	}
	var small, wide []byte
	for i := 0; i < 2*radixCutoff; i++ {
		wide = append(wide, rec(uint32(i*7919), float32(i))...)
		if i < 5 {
			small = append(small, rec(uint32(5-i), -1)...)
		}
	}
	for shape := byte(0); shape < 12; shape++ {
		f.Add(shape, wide)
	}
	f.Add(byte(0), small)
	f.Add(byte(0), append(rec(math.MaxUint32, 0), wide...)) // start -1

	f.Fuzz(func(t *testing.T, shape byte, raw []byte) {
		ms := make([]Match, len(raw)/8)
		for i := range ms {
			u := binary.LittleEndian.Uint32(raw[8*i:])
			var start int
			switch shape & 3 {
			case 0:
				start = int(int32(u))
			case 1:
				start = int(u & 7)
			case 2:
				start = 1<<40 + int(u)<<4
			case 3:
				start = int(u % 200000)
			}
			dist := math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i+4:]))
			ms[i] = Match{Start: start, Dist: float64(dist)}
		}
		switch {
		case shape&4 != 0:
			ms = sortOracle(ms)
		case shape&8 != 0:
			ms = sortOracle(ms)
			slices.Reverse(ms)
		}
		want := sortOracle(ms)
		SortMatches(ms)
		if !sameBits(ms, want) {
			t.Fatalf("shape=%d n=%d: order differs from the stable oracle", shape, len(ms))
		}
	})
}

// randomStarts returns n distinct starts drawn from a 200k-window span,
// in random order — the shape of a range answer before its merge.
func randomStarts(n int) []Match {
	perm := rand.New(rand.NewSource(int64(n))).Perm(200000)[:n]
	ms := make([]Match, n)
	for i, p := range perm {
		ms[i] = Match{Start: p, Dist: -1}
	}
	return ms
}

// BenchmarkSortMatches times SortMatches on random starts at answer
// sizes from a tight query to a loose one. Each iteration re-copies the
// unsorted input (included in the time).
func BenchmarkSortMatches(b *testing.B) {
	for _, n := range []int{16, 256, 4096, 50000} {
		in := randomStarts(n)
		ms := make([]Match, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(ms, in)
				SortMatches(ms)
			}
		})
	}
}

// BenchmarkSortMatchesCutoff times the radix and comparison paths
// against each other around radixCutoff; the cutoff sits where they
// cross.
func BenchmarkSortMatchesCutoff(b *testing.B) {
	for _, n := range []int{32, 64, 96, 128} {
		in := randomStarts(n)
		ms := make([]Match, n)
		for _, path := range []struct {
			name string
			sort func([]Match)
		}{
			{"radix", func(ms []Match) { radixSort(ms) }},
			{"comparison", comparisonSort},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(ms, in)
					path.sort(ms)
				}
			})
		}
	}
}
