package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode needs: each
// metric's direction and, for end-to-end metrics, its bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minRuns is the fewest records per side for which compare judges a
// metric against its bound. A single run's spread is close to the bounds
// (see README.md), so one pair of runs of unchanged code would often
// differ by more than a bound; medians of several seeded runs do not.
const minRuns = 5

// compareMain prints each metric's median on both sides and the delta
// between them, flags end-to-end metrics whose median got worse by more
// than their bound (when each side has at least minRuns records) and
// exact-repeat counts that differ between records of the same seed. It
// exits 1 when anything is flagged.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	oldPaths, newPaths, ok := splitSides(fs.Args())
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--benchmark BENCHMARK.json] old.json... -- new.json...")
		return 2
	}
	var bs benchSpec
	if err := readJSON(*specPath, &bs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	olds, err := readRecords(oldPaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	news, err := readRecords(newPaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if olds[0].Workload != news[0].Workload || olds[0].Traced != news[0].Traced {
		fmt.Fprintf(os.Stderr, "perfbench compare: the sides hold different runs (%s traced=%v, %s traced=%v)\n",
			olds[0].Workload, olds[0].Traced, news[0].Workload, news[0].Traced)
		return 2
	}
	judge := len(olds) >= minRuns && len(news) >= minRuns
	if !judge {
		fmt.Printf("warning: %d old and %d new run(s); bounds are judged only on medians of at least %d runs per side\n",
			len(olds), len(news), minRuns)
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	for _, m := range bs.EndToEnd {
		bounds[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	differs := exactDiffers(olds, news)
	names := map[string]bool{}
	for _, r := range append(append([]*record(nil), olds...), news...) {
		for n := range r.Metrics {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	workload := olds[0].Workload
	flagged := 0
	fmt.Printf("%-36s %14s %14s %9s  (medians of %d old, %d new)\n", "metric", "old", "new", "delta", len(olds), len(news))
	for _, n := range sorted {
		va, oka := sideMedian(olds, n)
		vb, okb := sideMedian(news, n)
		note := ""
		delta := math.NaN()
		switch {
		case !oka || !okb:
			note = "MISSING"
			flagged++
		default:
			if va != 0 {
				delta = (vb - va) / math.Abs(va)
			}
			if bound, ok := bounds[n]; ok {
				worse := delta
				if !lower[n] {
					worse = -delta
				}
				if worse > bound {
					if judge {
						note = fmt.Sprintf("OUTSIDE BOUND %.2f", bound)
						flagged++
					} else {
						note = fmt.Sprintf("beyond bound %.2f, too few runs to judge", bound)
					}
				}
			}
			if differs[n] {
				note = "EXACT COUNT DIFFERS"
				flagged++
			}
		}
		fmt.Printf("%-36s %14.4f %14.4f %+8.1f%% %s\n", workload+"/"+n, va, vb, 100*delta, note)
	}
	if flagged > 0 {
		fmt.Printf("%d metric(s) flagged\n", flagged)
		return 1
	}
	return 0
}

// splitSides splits compare's arguments at "--" into the old and new
// records. Two arguments without "--" are one record a side.
func splitSides(args []string) (olds, news []string, ok bool) {
	for i, a := range args {
		if a == "--" {
			olds, news = args[:i], args[i+1:]
			return olds, news, len(olds) > 0 && len(news) > 0
		}
	}
	if len(args) == 2 {
		return args[:1], args[1:], true
	}
	return nil, nil, false
}

// readRecords reads one side's records, which must all be runs of the
// same workload in the same mode.
func readRecords(paths []string) ([]*record, error) {
	var out []*record
	for _, p := range paths {
		r := &record{}
		if err := readJSON(p, r); err != nil {
			return nil, err
		}
		if len(out) > 0 && (r.Workload != out[0].Workload || r.Traced != out[0].Traced) {
			return nil, fmt.Errorf("%s: a %s run (traced=%v) among %s runs (traced=%v)", p, r.Workload, r.Traced, out[0].Workload, out[0].Traced)
		}
		out = append(out, r)
	}
	return out, nil
}

// sideMedian is the median of a metric over the records of one side; ok
// is false when a record lacks it.
func sideMedian(rs []*record, name string) (v float64, ok bool) {
	var xs []float64
	for _, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return 0, false
		}
		xs = append(xs, m.Value)
	}
	return median(xs), true
}

// exactDiffers reports the exact-repeat counts that differ between an old
// and a new record of the same seed.
func exactDiffers(olds, news []*record) map[string]bool {
	out := map[string]bool{}
	for _, a := range olds {
		for _, b := range news {
			if a.Seed != b.Seed {
				continue
			}
			for _, k := range exactCounts {
				ma, oka := a.Metrics[k]
				mb, okb := b.Metrics[k]
				if oka && okb && ma.Value != mb.Value {
					out[k] = true
				}
			}
		}
	}
	return out
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
