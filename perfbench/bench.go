package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"twinsearch"
	"twinsearch/internal/mbts/kernel"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header describes the run; it is printed before the metrics and stored
// with them.
type header struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Revision   string  `json:"revision"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Data       string  `json:"data"`
	Points     int     `json:"points"`
	L          int     `json:"l"`
	Shards     int     `json:"shards"`
	Eps        string  `json:"eps"`
	Mix        string  `json:"mix"`
	Load       string  `json:"load"`
}

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupReps = 3

// replayFitTolerance bounds trace.unattributed_frac in the traced run:
// past it, the replays below some layer took that much longer than the
// layer itself, and the decomposition does not describe the calls.
const replayFitTolerance = 0.25

func runWorkload(w *workload, cfg config, out io.Writer) (report, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	ds := w.data(cfg)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var e env
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return report{}, err
			}
		}
		t0 := time.Now()
		ne, err := w.open(ds, cfg)
		if err != nil {
			return report{}, fmt.Errorf("set up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		e = ne
	}
	defer e.close()
	indexBytes := e.indexBytes()

	h := newHeader(w, ds, cfg)
	printHeader(out, h)
	closedLoop(e, w.clients, cfg.seed+1_000_003, warmup(cfg), nil)

	var notes []string
	rep := report{Correct: true, Metrics: make(map[string]metric)}
	all := make(map[string]metric)
	var mismatches []error
	if !cfg.trace {
		res := closedLoop(e, w.clients, cfg.seed, cfg.seconds, nil)
		mismatches = e.check(res.samples)
		rep.Attempted = res.attempted
		rep.Failed = res.failed + len(mismatches)
		for k, v := range endToEnd(res, median(setups), indexBytes, len(ds.series), len(mismatches)) {
			rep.Metrics[k] = v
			all[k] = v
		}
		for k, v := range byKind(res, len(mismatches)) {
			all[k] = v
		}
		notes = append(notes, percentileNotes(res)...)
		for _, s := range res.errs {
			notes = append(notes, "failed: "+s)
		}
	} else {
		lo := newLayerObs()
		if err := e.traceSetup(lo); err != nil {
			return report{}, fmt.Errorf("traced set-up: %w", err)
		}
		third := cfg.seconds / 3
		var ss0, ss1 twinsearch.ServingStats
		if eng := e.engine(); eng != nil {
			ss0 = eng.ServingStats()
		}
		base := closedLoop(e, w.clients, cfg.seed, third, nil)
		if eng := e.engine(); eng != nil {
			ss1 = eng.ServingStats()
		}
		tr := newTracer()
		res := closedLoop(e, w.clients, cfg.seed+1, cfg.seconds-third, tr)
		// The open-loop phase: requests sent on a fixed schedule, timed
		// from when each was due.
		open := &loadResult{}
		if w.rate > 0 {
			open = openLoop(e, w.rate, w.clients, cfg.seed+2, third, nil)
			if late := pct(open.late, 0.99); late > lateBound {
				rep.Correct = false
				notes = append(notes, fmt.Sprintf("INVALID: open-loop lateness p99 %v exceeds %v", late, lateBound))
			}
		}
		mismatches = e.check(append(append(base.samples, res.samples...), open.samples...))
		if err := e.traceFinish(lo); err != nil {
			return report{}, fmt.Errorf("traced measurements: %w", err)
		}
		reqs := tr.requests()
		spanPath := filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(spanPath, reqs); err != nil {
			return report{}, err
		}
		notes = append(notes, "spans: "+spanPath)
		rep.Attempted = base.attempted + res.attempted + open.attempted
		rep.Failed = base.failed + res.failed + open.failed + len(mismatches)
		lm := layerMetrics(reqs, lo, base, res, open, ss0, ss1)
		for k, v := range lm {
			rep.Metrics[k] = v
			all[k] = v
		}
		if u := lm["trace.unattributed_frac"].Value; u > replayFitTolerance {
			rep.Correct = false
			notes = append(notes, fmt.Sprintf("FAILED replay fit: replays overrun the calls they decompose by %.3f of wall time, more than %.2f", u, replayFitTolerance))
		}
		for _, s := range append(append(base.errs, res.errs...), open.errs...) {
			notes = append(notes, "failed: "+s)
		}
	}
	for _, m := range mismatches {
		notes = append(notes, "MISMATCH: "+m.Error())
	}
	if len(mismatches) > 0 {
		rep.Correct = false
	}
	printMetrics(out, all, notes)
	if err := storeResult(cfg, h, rep, all, notes); err != nil {
		return report{}, err
	}
	return rep, nil
}

// endToEnd computes the untraced run's end-to-end metrics.
func endToEnd(res *loadResult, setup float64, indexBytes, points, mismatches int) map[string]metric {
	q := queries(res)
	failed := res.failed + mismatches
	return map[string]metric{
		"setup_s":               {setup, "s"},
		"query_p50_ms":          {ms(pct(q, 0.50)), "ms"},
		"query_p99_ms":          {ms(pct(q, 0.99)), "ms"},
		"qps":                   {float64(len(q)) / res.elapsed.Seconds(), "1/s"},
		"ok_frac":               {1 - float64(failed)/float64(max(res.attempted, 1)), "ratio"},
		"range_p50_ms":          {ms(pct(res.lat[kindRange], 0.50)), "ms"},
		"index_bytes_per_point": {float64(indexBytes) / float64(points), "B/point"},
	}
}

// byKind computes the per-kind latencies of the kinds a workload has,
// and the failure share; they are printed and stored, not part of the
// last line.
func byKind(res *loadResult, mismatches int) map[string]metric {
	out := map[string]metric{
		"failed_frac": {float64(res.failed+mismatches) / float64(max(res.attempted, 1)), "ratio"},
	}
	for _, k := range []string{kindTopK, kindShorter, kindAppend} {
		if len(res.lat[k]) > 0 {
			out[k+"_p50_ms"] = metric{ms(pct(res.lat[k], 0.50)), "ms"}
		}
	}
	if a := res.lat[kindAppend]; len(a) > 0 {
		out["append_p90_ms"] = metric{ms(pct(a, 0.90)), "ms"}
	}
	return out
}

// percentileNotes reports, for every percentile the run names, how
// many samples lie beyond it: fewer than ten makes it noise.
func percentileNotes(res *loadResult) []string {
	var out []string
	n := len(queries(res))
	out = append(out, fmt.Sprintf("samples: %d queries, %d beyond p99", n, n-int(math.Ceil(0.99*float64(n)))))
	if a := len(res.lat[kindAppend]); a > 0 {
		out = append(out, fmt.Sprintf("samples: %d appends, %d beyond p90", a, a-int(math.Ceil(0.90*float64(a)))))
	}
	return out
}

// queries is every answered request but the appends.
func queries(res *loadResult) []time.Duration {
	var q []time.Duration
	for k, v := range res.lat {
		if k != kindAppend {
			q = append(q, v...)
		}
	}
	return q
}

// pct is the nearest-rank percentile p of ds (0 for none).
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func newHeader(w *workload, ds *dataSet, cfg config) header {
	load := fmt.Sprintf("closed loop, %d clients", w.clients)
	if w.rate > 0 && cfg.trace {
		load += fmt.Sprintf("; then open loop, %g req/s over %d connections", w.rate, w.clients)
	}
	return header{
		Workload: w.name, Why: w.why, Revision: revision(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Kernel: kernel.Active(), Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(),
		Data:   fmt.Sprintf("%s(seed %d, %d points)", ds.name, dataSeed, len(ds.series)),
		Points: len(ds.series), L: ds.l, Shards: w.shards, Eps: w.eps, Mix: w.mix, Load: load,
	}
}

// revision names the source the benchmark ran: the git revision of the
// checkout, or, when the checkout is not a git repository, a digest of
// its Go sources.
func revision() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	git := osexec.Command("git", "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	if out, err := git.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	sum := sha256.New()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s %d\n", path, len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
}

func printHeader(out io.Writer, h header) {
	fmt.Fprintf(out, "# perfbench %s (trace=%v, seed=%d, %gs)\n", h.Workload, h.Trace, h.Seed, h.Seconds)
	fmt.Fprintf(out, "# why: %s\n", h.Why)
	fmt.Fprintf(out, "# revision: %s  go: %s  GOMAXPROCS: %d  nproc: %d  kernel: %s\n", h.Revision, h.GoVersion, h.GOMAXPROCS, h.NProc, h.Kernel)
	fmt.Fprintf(out, "# data: %s, L=%d, shards=%d, eps=%s\n", h.Data, h.L, h.Shards, h.Eps)
	fmt.Fprintf(out, "# mix: %s\n", h.Mix)
	fmt.Fprintf(out, "# load: %s\n", h.Load)
}

func printMetrics(out io.Writer, all map[string]metric, notes []string) {
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(out, "# "+n)
	}
}

// storeResult keeps the run's header and every metric under the work
// directory, one file per workload, seed and mode.
func storeResult(cfg config, h header, rep report, all map[string]metric, notes []string) error {
	dir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	doc := struct {
		Header    header            `json:"header"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
		Notes     []string          `json:"notes"`
	}{h, rep.Correct, rep.Attempted, rep.Failed, all, notes}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", h.Workload, h.Seed, trace)), b, 0o644)
}
