package main

// Load generators. A closed loop runs a fixed number of clients that
// each send their next request only when the previous one answered; an
// open loop sends on a fixed schedule whatever the system does, and
// times every request from the moment it was due.

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"twinsearch/internal/series"
)

// Operation kinds, as they appear in the per-kind metrics.
const (
	kindRange   = "range"
	kindTopK    = "topk"
	kindShorter = "shorter"
	kindAppend  = "append"
)

// op is one request a workload draws.
type op struct {
	kind string
	q    []float64
	eps  float64
	k    int
}

// answer is what one request returned.
type answer struct {
	ms   []series.Match
	body []byte // HTTP answers, decoded only when checked
	// seriesLen is the length of the series the answer was computed
	// over. It is 0 when an append may have raced the request, and such
	// an answer is not checked.
	seriesLen int
}

// sample is an answered request kept for the correctness gate.
type sample struct {
	op  op
	ans answer
}

// errShed marks a request the server refused with 429.
var errShed = errors.New("shed with 429 Too Many Requests")

// Samples kept for the correctness gate: each answered request is kept
// with probability keepP, up to keepPerKind per kind and client.
const (
	keepP       = 0.05
	keepPerKind = 4
)

// loadResult is what one timed phase measured.
type loadResult struct {
	lat       map[string][]time.Duration // by kind, answered requests only
	attempted int
	failed    int
	shed      int
	late      []time.Duration // open loop: actual send minus due time
	samples   []sample
	errs      []string // the first few failure messages
	elapsed   time.Duration
}

// tally is one client's share of a loadResult.
type tally struct {
	loadResult
	kept map[string]int
	rng  *rand.Rand // sampling decisions only
}

func newTally(seed int64) *tally {
	return &tally{loadResult: loadResult{lat: make(map[string][]time.Duration)}, kept: make(map[string]int), rng: rand.New(rand.NewSource(seed))}
}

func (t *tally) record(o op, ans answer, err error, lat time.Duration) {
	t.attempted++
	if err != nil {
		t.failed++
		if errors.Is(err, errShed) {
			t.shed++
		}
		if len(t.errs) < 5 {
			t.errs = append(t.errs, o.kind+": "+err.Error())
		}
		return
	}
	t.lat[o.kind] = append(t.lat[o.kind], lat)
	if t.rng.Float64() < keepP && t.kept[o.kind] < keepPerKind && o.kind != kindAppend {
		t.kept[o.kind]++
		t.samples = append(t.samples, sample{op: o, ans: ans})
	}
}

func merge(ts []*tally, elapsed time.Duration) *loadResult {
	out := &loadResult{lat: make(map[string][]time.Duration), elapsed: elapsed}
	for _, t := range ts {
		for k, v := range t.lat {
			out.lat[k] = append(out.lat[k], v...)
		}
		out.attempted += t.attempted
		out.failed += t.failed
		out.shed += t.shed
		out.late = append(out.late, t.late...)
		out.samples = append(out.samples, t.samples...)
		if len(out.errs) < 5 {
			out.errs = append(out.errs, t.errs...)
		}
	}
	return out
}

// execOp runs one request, tracing it when tr is set.
func execOp(e env, tr *tracer, o op) (answer, error) {
	rt := tr.begin(o.kind)
	ans, err := e.do(o, rt)
	if err != nil {
		rt.fail()
	}
	return ans, err
}

// closedLoop runs clients closed-loop clients for d. Client c draws its
// requests from its own stream seeded by seed and c.
func closedLoop(e env, clients int, seed int64, d time.Duration, tr *tracer) *loadResult {
	ts := make([]*tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range ts {
		ts[c] = newTally(seed*7919 + int64(c) + 1)
		wg.Add(1)
		go func(t *tally, rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := e.next(rng)
				t0 := time.Now()
				ans, err := execOp(e, tr, o)
				t.record(o, ans, err, time.Since(t0))
			}
		}(ts[c], rand.New(rand.NewSource(seed*104729+int64(c))))
	}
	wg.Wait()
	return merge(ts, time.Since(start))
}

// job is one scheduled open-loop request.
type job struct {
	o   op
	due time.Time
}

// openLoop sends rate requests per second for d over senders
// connections. A request waits in the queue while every sender is busy;
// that wait counts in its latency and in the generator's lateness.
func openLoop(e env, rate float64, senders int, seed int64, d time.Duration, tr *tracer) *loadResult {
	// The queue holds up to one second of requests, so a stall shows up
	// as lateness instead of blocking the schedule itself.
	jobs := make(chan job, int(rate)+1)
	ts := make([]*tally, senders)
	var wg sync.WaitGroup
	for s := range ts {
		ts[s] = newTally(seed*7919 + int64(s) + 1)
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				t.late = append(t.late, sent.Sub(j.due))
				ans, err := execOp(e, tr, j.o)
				t.record(j.o, ans, err, time.Since(j.due))
			}
		}(ts[s])
	}
	rng := rand.New(rand.NewSource(seed * 104729))
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{o: e.next(rng), due: due}
	}
	close(jobs)
	wg.Wait()
	return merge(ts, time.Since(start))
}
