package main

// The correctness gate's independent oracle: brute force over the same
// series, sharing no code with the index beyond the normalization and
// the distance function.

import (
	"fmt"
	"math"

	"twinsearch/internal/series"
	"twinsearch/internal/sweepline"
)

type oracle struct {
	ext *series.Extractor
	sw  *sweepline.Sweepline
}

// newOracle builds the oracle over data under the engines' default
// global normalization, then appends the points appended since, the way
// Engine.Append does: with the original series' normalization.
func newOracle(data []float64, appended ...float64) *oracle {
	ext := series.NewExtractor(data, series.NormGlobal)
	ext.Append(appended...)
	return &oracle{ext: ext, sw: sweepline.New(ext)}
}

// within returns every window of the first n points within eps of the
// raw query q, in start order.
func (o *oracle) within(q []float64, eps float64, n int) []series.Match {
	var out []series.Match
	for _, m := range o.sw.Search(o.ext.TransformQuery(q), eps) {
		if m.Start+len(q) <= n {
			out = append(out, m)
		}
	}
	return out
}

// nearest returns the k windows of the first n points nearest to q,
// by ascending distance with ties broken by start: the engine's order.
func (o *oracle) nearest(q []float64, k, n int) []series.Match {
	tq := o.ext.TransformQuery(q)
	data := o.ext.Data()
	var out []series.Match
	for p := 0; p+len(q) <= n; p++ {
		d := series.Chebyshev(tq, data[p:p+len(q)])
		if len(out) == k && d >= out[k-1].Dist {
			continue
		}
		if len(out) < k {
			out = append(out, series.Match{})
		}
		i := len(out) - 1
		for i > 0 && out[i-1].Dist > d {
			out[i] = out[i-1]
			i--
		}
		out[i] = series.Match{Start: p, Dist: d}
	}
	return out
}

// checkSample compares one sampled answer with the oracle: range and
// shorter answers must equal brute force, top-k answers must be the k
// nearest windows with their exact distances. n is the series length the
// answer was computed over.
func (o *oracle) checkSample(s sample, n int) error {
	switch s.op.kind {
	case kindRange, kindShorter:
		return sameMatches(s.ans.ms, o.within(s.op.q, s.op.eps, n))
	case kindTopK:
		return sameMatches(s.ans.ms, o.nearest(s.op.q, s.op.k, n))
	}
	return fmt.Errorf("no oracle for %s requests", s.op.kind)
}

// sameMatches reports whether got equals want start for start and
// distance bit for bit.
func sameMatches(got, want []series.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Start != want[i].Start || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("match %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAll runs checkSample on every sample whose series length is
// known, labelling each mismatch with the request.
func (o *oracle) checkAll(samples []sample) []error {
	var errs []error
	for _, s := range samples {
		if s.ans.seriesLen == 0 {
			continue
		}
		if err := o.checkSample(s, s.ans.seriesLen); err != nil {
			errs = append(errs, fmt.Errorf("%s vs brute force: %w", s.op.kind, err))
		}
	}
	return errs
}
