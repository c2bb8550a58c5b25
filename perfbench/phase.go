package main

import (
	"context"
	"math"
	"runtime"
	"time"
)

// phaseResult is one timed open-loop phase.
type phaseResult struct {
	rate       float64
	dur        time.Duration
	samples    []sample
	before     runtimeStats
	after      runtimeStats
	heapPeak   uint64
	goroutines int
}

// Warm-up windows run at the phase's own rate before the timed window and
// are not recorded.
const (
	warmNominal = time.Second
	warmRung    = time.Second
	// overrunGrace is how long a phase may run past its schedule before
	// its unsent requests are abandoned.
	overrunGrace = 2 * time.Second
)

// timed runs one phase: a full GC, a warm-up window at rate, then the
// timed window with the runtime sampled around it. In a nominal phase
// (nominal set) a request abandoned for overrunning the schedule is a
// failure of the run; on the ladder's rungs, where overload is the point,
// it only counts as a miss.
func (b *bench) timed(name string, rate float64, warm, dur time.Duration, nominal bool) phaseResult {
	rng := phaseRNG(b.in.seed, name)
	runtime.GC()
	b.runPhase(b.schedule(rng, rate, warm), 0, false)
	ops := b.schedule(rng, rate, dur)
	pr := phaseResult{rate: rate, dur: dur}
	smp := startSampler()
	pr.before = readRuntime()
	pr.samples = b.runPhase(ops, overrunGrace, nominal)
	pr.after = readRuntime()
	pr.heapPeak, pr.goroutines = smp.finish()
	return pr
}

// latencies returns the phase's read or write latencies in milliseconds; a
// failed request counts as infinitely late.
func (pr *phaseResult) latencies(write bool) []float64 {
	var out []float64
	for _, s := range pr.samples {
		if s.write != write {
			continue
		}
		if !s.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.lat))
	}
	return out
}

func (pr *phaseResult) completed() int {
	n := 0
	for _, s := range pr.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// rung is one step of the rate ladder.
type rung struct {
	Rate float64 `json:"rate"`
	// Throughput is the reads completed within the rung's window, per
	// second.
	Throughput float64 `json:"throughput"`
	P90Ms      float64 `json:"p90_ms"`
	LagMs      float64 `json:"end_lag_ms"`
	CPUMsOp    float64 `json:"cpu_ms_per_op"`
	Steal      float64 `json:"host_steal_frac"`
	Passed     bool    `json:"passed"`
}

// evalRung judges a phase against the latency limit: its p90 read latency
// must meet the limit and the backlog must not grow, that is the last
// tenth of its requests must not start later than the limit.
func evalRung(pr phaseResult, limitMs float64) rung {
	r := rung{Rate: pr.rate, P90Ms: finite(quantile(pr.latencies(false), 0.9))}
	tail := pr.samples[len(pr.samples)*9/10:]
	var lags []float64
	for _, s := range tail {
		lags = append(lags, ms(s.lag))
	}
	r.LagMs = median(lags)
	done := 0
	for _, s := range pr.samples {
		if !s.write && s.ok && s.done <= pr.dur {
			done++
		}
	}
	r.Throughput = float64(done) / pr.dur.Seconds()
	r.CPUMsOp = ms(pr.after.cpu-pr.before.cpu) / float64(max(pr.completed(), 1))
	r.Steal = stealFrac(pr.before.steal, pr.after.steal)
	r.Passed = r.P90Ms <= limitMs && r.LagMs <= limitMs
	return r
}

// maxRate estimates the highest read rate whose p90 latency meets the
// limit. It climbs the ladder above the nominal rung, each rung lasting
// per, until a rung fails. A ladder that never fails reports its top rung.
// Otherwise the first failing rung (the overload rung, when the program is
// slower than the ladder's top) gives the capacity C as its completion
// rate, and the last passing rung, at rate r with p90 p, anchors the
// waiting-time curve: with waiting growing as 1/(C − rate), p90 reaches
// the limit L at C − (C − r)·p/L. Both inputs are averages over many
// requests, so the estimate is steady where a p90 measured at the knee
// itself would swing from run to run.
func (b *bench) maxRate(nominal rung, per time.Duration) (float64, []rung) {
	sp := b.in.sp
	rungs := []rung{nominal}
	for i, rate := range sp.ladder {
		pr := b.timed("rung"+string(rune('a'+i)), rate, warmRung, per, false)
		r := evalRung(pr, sp.limitMs)
		rungs = append(rungs, r)
		if !r.Passed {
			break
		}
	}
	last := rungs[len(rungs)-1]
	if last.Passed || len(rungs) == 1 {
		return last.Rate, rungs
	}
	lo := rungs[len(rungs)-2]
	c := last.Throughput
	if c <= lo.Rate {
		return lo.Rate, rungs
	}
	return c - (c-lo.Rate)*lo.P90Ms/sp.limitMs, rungs
}

// runEndToEnd measures the end-to-end metrics: set-up, the nominal phase
// (70% of the measured time) and the rate ladder (rungs of a tenth of it
// each, stopping at the first failing rung).
func runEndToEnd(ctx context.Context, in *inputs, seconds time.Duration, rec *record) error {
	b := newBench(in, defaultConfig())
	defer b.stop()
	var spans spanLog
	setups, err := b.setup(ctx, setupsPerRun, &spans)
	if err != nil {
		return err
	}
	nom := b.timed("nominal", in.sp.readRate, warmNominal, seconds*7/10, true)
	nominalRung := evalRung(nom, in.sp.limitMs)
	maxRate, rungs := b.maxRate(nominalRung, seconds/10)

	reads := nom.latencies(false)
	readTail, readPct := windowedTail(reads)
	done := float64(max(nom.completed(), 1))
	rec.metric("setup_s", median(setups), "s")
	rec.metric("read_p50_ms", median(reads), "ms")
	rec.ungated("read_tail_ms", readTail, "ms")
	if in.sp.writeRate > 0 {
		// Only churn writes. Its write latencies are reported but not
		// gated: a gated metric must be defined, and non-zero, on every
		// workload.
		writes := nom.latencies(true)
		writeTail, writePct := windowedTail(writes)
		rec.ungated("write_p50_ms", median(writes), "ms")
		rec.ungated("write_tail_ms", writeTail, "ms")
		rec.Detail["write_samples"] = len(writes)
		rec.Detail["write_tail_percentile"] = writePct
	}
	rec.metric("success_frac", float64(nom.completed())/float64(max(len(nom.samples), 1)), "frac")
	rec.metric("cpu_ms_per_op", ms(nom.after.cpu-nom.before.cpu)/done, "ms")
	rec.metric("alloc_kb_per_op", float64(nom.after.alloc-nom.before.alloc)/1024/done, "KB")
	rec.metric("heap_peak_mb", float64(nom.heapPeak)/(1<<20), "MB")

	rec.Detail["setup_runs_s"] = setups
	rec.Detail["read_samples"] = len(reads)
	rec.Detail["read_tail_percentile"] = readPct
	rec.ungated("max_rate_rps", maxRate, "1/s")
	rec.Detail["ladder"] = rungs
	rec.Detail["host_steal_frac"] = stealFrac(nom.before.steal, nom.after.steal)
	rec.Detail["read_classes_p50_ms"] = classMedians(in, nom)
	rec.finish(b)
	return nil
}

// classMedians is the median latency of each read class in a phase, which
// shows which class the overall median falls in.
func classMedians(in *inputs, pr phaseResult) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range pr.samples {
		if !s.write && s.ok {
			c := in.reads[s.read].class
			by[c] = append(by[c], ms(s.lat))
		}
	}
	out := map[string]float64{}
	for c, xs := range by {
		out[c] = median(xs)
	}
	return out
}
