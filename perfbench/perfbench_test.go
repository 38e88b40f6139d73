package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"twinsearch/internal/series"
)

// benchmarkFile is the part of BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced
// and traced, and checks that the report holds exactly the metrics
// BENCHMARK.json lists for that mode, each with its unit, and that the
// table prints each of them.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if wl := workloadByName(w.Name); wl == nil || wl.why != w.Why {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the benchmark or has another why", w.Name)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{"0": b.EndToEnd, "1": b.PerLayer} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{seed: 3, seconds: 600 * time.Millisecond, trace: trace == "1", scale: 0.02, workdir: t.TempDir()}
				rep, err := runWorkload(w, cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if got.Unit == "" || got.Unit != m.Unit {
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name+" ") {
						t.Errorf("metric %s missing from the table", m.Name)
					}
				}
			})
		}
	}
}

// TestGateFiresOnCorruptedAnswer takes correct answers of every kind
// from a small cluster, checks that the gate passes them, then corrupts
// each and checks that the gate reports it.
func TestGateFiresOnCorruptedAnswer(t *testing.T) {
	cfg := config{scale: 0.02, workdir: t.TempDir()}
	ds := workloadByName("cluster-loopback").data(cfg)
	e, err := openCluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	rng := rand.New(rand.NewSource(5))
	var samples []sample
	for kinds := map[string]bool{}; len(kinds) < 3; {
		o := e.next(rng)
		ans, err := e.do(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A corruption needs something to corrupt.
		if len(ans.ms) == 0 || kinds[o.kind] {
			continue
		}
		kinds[o.kind] = true
		samples = append(samples, sample{op: o, ans: ans})
	}
	if errs := e.check(samples); len(errs) != 0 {
		t.Fatalf("gate rejects correct answers: %v", errs)
	}
	for _, s := range samples {
		corrupt := s
		corrupt.ans.ms = append([]series.Match(nil), s.ans.ms...)
		if s.op.kind == kindTopK {
			corrupt.ans.ms[len(s.ans.ms)-1].Dist *= 0.5
		} else {
			corrupt.ans.ms[0].Start++
		}
		if errs := e.check([]sample{corrupt}); len(errs) == 0 {
			t.Errorf("gate accepts a corrupted %s answer", s.op.kind)
		}
	}
}

// TestPredictionsCoverEveryMetric checks that predictions.json names a
// reason for every workload and a prediction for every per-layer metric,
// and that the benchmark reports exactly the per-layer metrics
// BENCHMARK.json lists.
func TestPredictionsCoverEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Workloads map[string]string `json:"workloads"`
		Layers    map[string]struct {
			Moves  string   `json:"moves"`
			On     []string `json:"on"`
			Bypass []string `json:"bypass"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if p.Workloads[w.name] == "" {
			t.Errorf("predictions.json gives no reason for workload %s", w.name)
		}
	}
	if len(b.PerLayer) != len(layerUnits) || len(p.Layers) != len(layerUnits) {
		t.Errorf("per-layer metrics: %d in BENCHMARK.json, %d in predictions.json, %d reported", len(b.PerLayer), len(p.Layers), len(layerUnits))
	}
	for _, m := range b.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, layerUnits[m.Name])
		}
		pr, ok := p.Layers[m.Name]
		if !ok {
			t.Errorf("predictions.json has no prediction for %s", m.Name)
			continue
		}
		for _, w := range append(pr.On, pr.Bypass...) {
			if workloadByName(w) == nil {
				t.Errorf("prediction for %s names unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestPathTimes checks the self-time walk and trace.unattributed_frac:
// sequential children add up, parallel children of one layer count by
// their longest, detail spans are ignored, and a layer whose replays
// take longer than the layer itself, summed over requests, shows up as
// unattributed time.
func TestPathTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{Layer: "coord", Start: 0, End: ms(10)},
		{Layer: "cluster.node", Parent: "coord", Start: ms(1), End: ms(5)},
		{Layer: "cluster.node", Parent: "coord", Start: ms(1), End: ms(7)},
		{Layer: "shard.traverse", Parent: "coord", Start: ms(20), End: ms(40), Detail: true},
	}
	self, wall, ok := pathTimes(spans)
	if !ok || wall != 10*time.Millisecond || self["coord"] != 4*time.Millisecond || self["cluster.node"] != 6*time.Millisecond {
		t.Fatalf("self %v wall %v ok %v", self, wall, ok)
	}
	if u := unattributed(self, wall); u != 0 {
		t.Fatalf("nested spans leave %v unattributed", u)
	}
	spans = []span{
		{Layer: "engine", Start: 0, End: ms(3)},
		{Layer: "engine.plan", Parent: "engine", Start: ms(3), End: ms(4)},
		{Layer: "core", Parent: "engine", Start: ms(4), End: ms(8)},
	}
	self, wall, _ = pathTimes(spans)
	if self["engine"] != -2*time.Millisecond || wall != 3*time.Millisecond {
		t.Fatalf("replay longer than its parent: self %v wall %v", self, wall)
	}
	if u := unattributed(self, wall); u < 0.66 || u > 0.67 {
		t.Fatalf("unattributed %v, want 2/3", u)
	}
}
