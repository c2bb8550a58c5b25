package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeScale shrinks every generated size for the smoke tests.
const smokeScale = 0.05

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Work     []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range def.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	if len(def.Work) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Work), len(specs))
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at a tiny
// size: every answer must be correct and every promised metric reported.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, sp := range specs {
		sp.scale = smokeScale
		for _, traced := range []bool{false, true} {
			rec, err := run(sp, 3, 2*time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					sp.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, name := range want {
				if _, ok := rec.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", sp.name, traced, name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", sp.name, traced, len(rec.Metrics), len(want))
			}
			if !traced {
				ungated := []string{"read_tail_ms", "max_rate_rps"}
				if sp.writeRate > 0 {
					ungated = append(ungated, "write_p50_ms", "write_tail_ms")
				}
				for _, name := range ungated {
					if _, ok := rec.Ungated[name]; !ok {
						t.Errorf("%s: ungated metric %s missing", sp.name, name)
					}
				}
				if len(rec.Ungated) != len(ungated) {
					t.Errorf("%s: ungated metrics %v, want %v", sp.name, rec.Ungated, ungated)
				}
			}
			if !traced && rec.Metrics["success_frac"].Value != 1 {
				t.Errorf("%s: success_frac %v, want 1", sp.name, rec.Metrics["success_frac"].Value)
			}
		}
	}
}

// TestTamperedAnswerIsCaught changes one expected answer and checks that
// the run reports the mismatch: the run is not correct and success_frac
// drops below 1.
func TestTamperedAnswerIsCaught(t *testing.T) {
	for _, name := range []string{"hospital_read", "collection"} {
		sp, _ := specByName(name)
		sp.scale = smokeScale
		in, err := genInputs(sp, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Tamper with the most frequent class, so the short run is sure to
		// send it in its timed phase too.
		top := 0
		for i, w := range in.weights {
			if w > in.weights[top] {
				top = i
			}
		}
		r := &in.reads[top]
		if r.coll {
			r.wantCount++
		} else {
			r.want[0] = append(append([]int(nil), r.want[0]...), 1<<30)
		}
		rec, err := measure(in, 2*time.Second, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Correct || rec.Failed == 0 {
			t.Errorf("%s: tampered answer not caught (correct=%v failed=%d)", name, rec.Correct, rec.Failed)
		}
		if rec.Metrics["success_frac"].Value >= 1 {
			t.Errorf("%s: success_frac %v with a wrong answer in the mix", name, rec.Metrics["success_frac"].Value)
		}
	}
}

// TestExactCountsRepeat runs the traced hospital_read run twice on one
// seed: the exact-repeat counts must be identical.
func TestExactCountsRepeat(t *testing.T) {
	sp, _ := specByName("hospital_read")
	sp.scale = smokeScale
	var first map[string]float64
	for i := 0; i < 2; i++ {
		rec, err := run(sp, 5, time.Second, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, k := range exactCounts {
			got[k] = rec.Metrics[k].Value
		}
		if first == nil {
			first = got
			continue
		}
		for k, v := range got {
			if first[k] != v {
				t.Errorf("%s: %v then %v", k, first[k], v)
			}
		}
	}
}

func TestTailBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tailBeyond(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tailBeyond(1..100) = %v at p%v, want 90 at p90", v, pct)
	}
	if v, _ := tailBeyond([]float64{3, 1, 2}); v != 1 {
		t.Errorf("tailBeyond of 3 samples = %v, want the smallest", v)
	}
}

// TestAbandonedNominalOpsFail checks that requests a nominal phase
// abandons for overrunning its schedule are attempted and failed, while
// the same on a ladder rung only marks the samples.
func TestAbandonedNominalOpsFail(t *testing.T) {
	for _, nominal := range []bool{true, false} {
		b := &bench{conns: 1}
		// A negative grace puts the deadline before the phase starts, so
		// every op is abandoned without being sent.
		samples := b.runPhase([]op{{}, {at: time.Millisecond}}, -time.Second, nominal)
		for _, s := range samples {
			if s.ok {
				t.Errorf("nominal=%v: abandoned op marked ok", nominal)
			}
		}
		want := 0
		if nominal {
			want = 2
		}
		if got := b.failureCount(); got != want || int(b.attempted.Load()) != want {
			t.Errorf("nominal=%v: %d failed, %d attempted, want %d each", nominal, got, b.attempted.Load(), want)
		}
	}
}

// TestCompareJudgesMedians checks that compare judges bounds on the
// medians of several runs per side, and only warns for fewer.
func TestCompareJudgesMedians(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"read_p50_ms","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, seed int64, v float64) string {
		r := record{Workload: "churn", Seed: seed, Metrics: map[string]metric{"read_p50_ms": {Value: v, Unit: "ms"}}}
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	side := func(prefix string, vs ...float64) []string {
		var out []string
		for i, v := range vs {
			out = append(out, write(prefix+string(rune('a'+i))+".json", int64(i), v))
		}
		return out
	}
	olds := side("old", 1, 1, 1, 1, 1)
	steady := side("steady", 2, 1.1, 1.1, 1.1, 0.5)   // one outlier, median +10%
	slower := side("slower", 1.3, 1.3, 1.4, 1.3, 1.3) // median +30%
	args := func(a, b []string) []string {
		out := append([]string{"--benchmark", spec}, a...)
		return append(append(out, "--"), b...)
	}
	if code := compareMain(args(olds, steady)); code != 0 {
		t.Errorf("median within bound: exit %d, want 0", code)
	}
	if code := compareMain(args(olds, slower)); code != 1 {
		t.Errorf("median outside bound: exit %d, want 1", code)
	}
	if code := compareMain([]string{"--benchmark", spec, olds[0], slower[0]}); code != 0 {
		t.Errorf("one run a side: exit %d, want 0 (too few runs to judge)", code)
	}
}
