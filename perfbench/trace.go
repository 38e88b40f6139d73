package main

// The traced run's span recorder. Spans are recorded by the benchmark's
// own code around its calls into each module's public functions (and,
// for the HTTP and shard-RPC servers, by handlers it wraps around theirs),
// kept in memory, and written out when the run ends. Nothing inside the
// program under test is instrumented.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req.
// Parent names the layer of the span that encloses this one on the
// request's blocking path ("" for the request's root). Detail spans are
// replays the benchmark makes off that path (per-shard traversals for
// skew, executor units); they never count towards the layer sum.
type span struct {
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Detail bool   `json:"detail,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer owns every request trace of one traced phase.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	reqs []*reqTrace
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens the trace of one request of the given operation kind.
func (t *tracer) begin(kind string) *reqTrace {
	if t == nil {
		return nil
	}
	rt := &reqTrace{t: t, id: t.next.Add(1), kind: kind}
	t.mu.Lock()
	t.reqs = append(t.reqs, rt)
	t.mu.Unlock()
	return rt
}

func (t *tracer) requests() []*reqTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*reqTrace(nil), t.reqs...)
}

// reqTrace collects one request's spans and per-request counts. Server
// handlers running on other goroutines add to it, hence the mutex. All
// methods are no-ops on a nil receiver, so untraced code paths call them
// freely.
type reqTrace struct {
	t    *tracer
	id   uint64
	kind string

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	failed bool
}

func (r *reqTrace) add(layer, parent string, start, end time.Time, detail bool) {
	if r == nil {
		return
	}
	s := span{Req: r.id, Layer: layer, Parent: parent, Start: start.Sub(r.t.t0).Nanoseconds(), End: end.Sub(r.t.t0).Nanoseconds(), Detail: detail}
	if parent == "" && !detail {
		s.Kind = r.kind
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// count adds v to the request's named count.
func (r *reqTrace) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counts == nil {
		r.counts = make(map[string]float64)
	}
	r.counts[name] += v
	r.mu.Unlock()
}

// fail marks the request as failed; its spans are kept but excluded
// from the layer metrics.
func (r *reqTrace) fail() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.failed = true
	r.mu.Unlock()
}

// timed runs fn as a span of the given layer.
func (r *reqTrace) timed(layer, parent string, detail bool, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(layer, parent, t0, t1, detail)
	return t1.Sub(t0)
}

// snapshot returns a copy of the request's spans and counts.
func (r *reqTrace) snapshot() ([]span, map[string]float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := make(map[string]float64, len(r.counts))
	for k, v := range r.counts {
		c[k] = v
	}
	return append([]span(nil), r.spans...), c, r.failed
}

// pathTimes walks a request's blocking path from its root and returns
// each layer's self time — the span's duration minus the part its
// children on the path cover — along with the root's wall time. Children
// of one layer that share a layer name ran in parallel (the shard RPC to
// each node), so only the longest of them blocks; children with
// different layer names ran one after the other and add up. A self time
// is negative when a replayed inner call took longer than the call
// around it; unattributed judges that over many requests.
func pathTimes(spans []span) (self map[string]time.Duration, wall time.Duration, ok bool) {
	byParent := make(map[string][]span)
	var root *span
	for i := range spans {
		s := spans[i]
		if s.Detail {
			continue
		}
		if s.Parent == "" {
			if root != nil {
				return nil, 0, false
			}
			root = &spans[i]
			continue
		}
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	if root == nil {
		return nil, 0, false
	}
	self = make(map[string]time.Duration)
	var walk func(s span)
	walk = func(s span) {
		longest := make(map[string]span)
		for _, c := range byParent[s.Layer] {
			if cur, seen := longest[c.Layer]; !seen || c.dur() > cur.dur() {
				longest[c.Layer] = c
			}
		}
		d := s.dur()
		for _, c := range longest {
			d -= c.dur()
			walk(c)
		}
		self[s.Layer] += d
	}
	walk(*root)
	return self, root.dur(), true
}

// unattributed is trace.unattributed_frac: the share of the requests'
// summed wall time that their summed layer self times do not account
// for. Each layer's self times are summed over the requests first, so
// the noise of one replay against one real call cancels out; a layer
// whose total is negative — replays below it that took longer than the
// layer itself — is counted at zero, and that excess is the mismatch.
// Self times are differences of spans, so they add up to the wall time
// whenever every total is positive: this reads how well the replays fit
// inside the calls they decompose, and the traced run fails when it is
// large. It is not a coverage check, since a call the benchmark does not
// span lands in its parent's self time.
func unattributed(selfTotal map[string]time.Duration, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range selfTotal {
		sum += max(d, 0)
	}
	return math.Abs(float64(wall-sum)) / float64(wall)
}

// writeSpans writes every span of the phase as JSON lines.
func writeSpans(path string, reqs []*reqTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range reqs {
		spans, _, _ := r.snapshot()
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
