package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// schemaVersion numbers the layout of the result record.
const schemaVersion = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result of one run: what ran, where, on which inputs,
// and every metric. The summary line printed last is a subset of it.
type record struct {
	Schema    int               `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       map[string]string `json:"env"`
	Sizes     map[string]any    `json:"sizes"`
	Rates     map[string]any    `json:"rates"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Ungated holds end-to-end metrics that are measured and reported but
	// too noisy on shared machines to bound (see README.md).
	Ungated map[string]metric `json:"ungated,omitempty"`
	// Detail holds sample counts, the percentiles the tails fell on, the
	// ladder and, for traced runs, the span self-time table.
	Detail map[string]any `json:"detail"`
	// Spans is the benchmark's own span log (traced runs).
	Spans []span `json:"-"`
}

func newRecord(sp spec, seed int64, seconds time.Duration, traced bool, in *inputs) *record {
	return &record{
		Schema:   schemaVersion,
		Workload: sp.name,
		Seed:     seed,
		Seconds:  seconds.Seconds(),
		Traced:   traced,
		Env:      environment(),
		Sizes:    in.sizes,
		Rates: map[string]any{
			"read_rps":  sp.readRate,
			"write_rps": sp.writeRate,
			"ladder":    sp.ladder,
			"limit_ms":  sp.limitMs,
			"conns":     runtime.GOMAXPROCS(0),
			"setups":    setupsPerRun,
		},
		Metrics: map[string]metric{},
		Ungated: map[string]metric{},
		Detail:  map[string]any{},
	}
}

func (r *record) metric(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (r *record) ungated(name string, v float64, unit string) {
	r.Ungated[name] = metric{Value: finite(v), Unit: unit}
}

// finite caps a latency that includes failed requests (counted as
// infinitely late) at 1e9, so records stay valid JSON.
func finite(x float64) float64 {
	return math.Min(x, 1e9)
}

// finish copies the runs' request and failure counts into the record.
func (r *record) finish(bs ...*bench) {
	for _, b := range bs {
		r.Attempted += int(b.attempted.Load())
		r.Failed += b.failureCount()
		r.Failures = append(r.Failures, b.failureList()...)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// summary is the one-line result: correctness, counts and metrics.
func (r *record) summary() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

// write stores the record (and the span log of a traced run) under dir.
func (r *record) write(dir string) error {
	mode := "e2e"
	if r.Traced {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d", r.Workload, mode, r.Seed))
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if r.Traced {
		raw, err := json.Marshal(r.Spans)
		if err != nil {
			return err
		}
		return os.WriteFile(base+".spans.json", raw, 0o644)
	}
	return nil
}

// print writes a human-readable report: one metric per line, then the
// failures, if any.
func (r *record) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %s, %s, go %s, GOMAXPROCS %s\n",
		r.Workload, r.Seed, mode, r.Env["cpu"], r.Env["go"], r.Env["gomaxprocs"])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", r.Workload+"/"+n, m.Value, m.Unit)
	}
	if st, ok := r.Detail["span_self_ms"]; ok {
		fmt.Fprintln(w, "  server span self time (median ms, count):")
		table := st.(map[string]spanStat)
		keys := make([]string, 0, len(table))
		for k := range table {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "    %-24s %10.4f %8d\n", k, table[k].MedianMs, table[k].Count)
		}
	}
	if ex, ok := r.Detail["exact_counts"]; ok {
		fmt.Fprintf(w, "  exact-repeat counts: %v\n", ex)
	}
	names = names[:0]
	for n := range r.Ungated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Ungated[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s (not gated)\n", r.Workload+"/"+n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// environment describes the machine and build a run used.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"numcpu":     fmt.Sprint(runtime.NumCPU()),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test when no commit is known: a
// SHA-256 over the module's Go sources and go.mod files below root.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
