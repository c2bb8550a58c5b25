package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"smoqe/internal/trace"
)

// span is one interval the benchmark timed itself, around a call into a
// layer.
type span struct {
	Name    string  `json:"name"`
	StartUs int64   `json:"start_us"`
	DurMs   float64 `json:"dur_ms"`
}

// spanLog keeps the benchmark's own spans in memory; a traced run writes
// them out once at the end.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time // guarded by mu
	spans []span    // guarded by mu
}

func (l *spanLog) add(name string, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		l.t0 = start
	}
	l.spans = append(l.spans, span{Name: name, StartUs: start.Sub(l.t0).Microseconds(), DurMs: ms(d)})
}

// durations returns the durations of the spans called name, in ms.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.DurMs)
		}
	}
	return out
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// spanStat summarizes the self time of one server span name.
type spanStat struct {
	MedianMs float64 `json:"median_ms"`
	MeanMs   float64 `json:"mean_ms"`
	Count    int     `json:"count"`
}

// traceView indexes one retained server trace.
type traceView struct {
	d        *trace.Data
	children map[string][]int // span ID → indices of its child spans
}

func newTraceView(d *trace.Data) traceView {
	tv := traceView{d: d, children: map[string][]int{}}
	for i, s := range d.Spans {
		if s.Parent != "" {
			tv.children[s.Parent] = append(tv.children[s.Parent], i)
		}
	}
	return tv
}

// covered is how much of span i's interval its children cover (their
// union, clipped to the span), in microseconds.
func (tv traceView) covered(i int, only map[string]bool) int64 {
	s := tv.d.Spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range tv.children[s.ID] {
		cs := tv.d.Spans[c]
		if only != nil && !only[cs.Name] {
			continue
		}
		a, b := max(cs.StartMicros, s.StartMicros), min(cs.StartMicros+cs.DurationMicros, s.StartMicros+s.DurationMicros)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), int64(-1<<62)
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// find returns the indices of the spans called name.
func (tv traceView) find(name string) []int {
	var out []int
	for i, s := range tv.d.Spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// serverLayers is the server and corpus per-layer numbers derived from
// the retained traces of the traced phase.
type serverLayers struct {
	selfMs      map[string][]float64
	httpSelf    []float64
	querySelf   []float64
	fanoutSelf  []float64
	docEval     []float64
	planBuild   []float64
	admit       []float64
	corpusAdmit []float64
}

// analyzeTraces computes every span's self time, and for each traced read
// (rt maps its trace ID to its client-side round trip) the HTTP and query
// path self times.
func analyzeTraces(traces []*trace.Data, rt map[string]time.Duration) serverLayers {
	sl := serverLayers{selfMs: map[string][]float64{}}
	queryParts := map[string]bool{"registry": true, "plan": true, "admit": true, "eval": true}
	for _, d := range traces {
		tv := newTraceView(d)
		for i, s := range d.Spans {
			self := float64(s.DurationMicros-tv.covered(i, nil)) / 1000
			sl.selfMs[s.Name] = append(sl.selfMs[s.Name], self)
			switch s.Name {
			case "plan.build":
				sl.planBuild = append(sl.planBuild, float64(s.DurationMicros)/1000)
			case "admit":
				sl.admit = append(sl.admit, float64(s.DurationMicros)/1000)
			case "corpus.admit":
				sl.corpusAdmit = append(sl.corpusAdmit, float64(s.DurationMicros)/1000)
			case "corpus.eval.doc":
				sl.docEval = append(sl.docEval, float64(s.DurationMicros)/1000)
			}
		}
		clientRT, traced := rt[d.TraceID]
		if !traced {
			continue
		}
		// The query path of a /query request is the interval from its
		// first to its last Server.Query stage; of a collection request,
		// the corpus.query span.
		var qStart, qEnd, evalUs, buildUs int64
		if cq := tv.find("corpus.query"); len(cq) > 0 {
			s := d.Spans[cq[0]]
			qStart, qEnd = s.StartMicros, s.StartMicros+s.DurationMicros
			evalUs = tv.covered(cq[0], map[string]bool{"corpus.eval.doc": true})
			sl.fanoutSelf = append(sl.fanoutSelf, float64(s.DurationMicros-tv.covered(cq[0], nil))/1000)
		} else {
			qStart, qEnd = int64(1<<62), int64(-1)
			for _, c := range tv.children[d.Spans[0].ID] { // the root span sorts first
				s := d.Spans[c]
				if !queryParts[s.Name] {
					continue
				}
				qStart = min(qStart, s.StartMicros)
				qEnd = max(qEnd, s.StartMicros+s.DurationMicros)
				if s.Name == "eval" {
					evalUs += s.DurationMicros
				}
			}
			if qEnd < 0 {
				continue
			}
		}
		for _, b := range tv.find("plan.build") {
			buildUs += d.Spans[b].DurationMicros
		}
		q := qEnd - qStart
		sl.querySelf = append(sl.querySelf, float64(q-evalUs-buildUs)/1000)
		sl.httpSelf = append(sl.httpSelf, ms(clientRT)-float64(q)/1000)
	}
	return sl
}

// runTraced is the per-layer run. It measures the nominal phase twice on
// the same schedule — on a default server with plain requests, then on a
// server that retains every trace with forced-trace requests — so
// trace.overhead_frac compares the two, then times each layer directly on
// the workload's inputs.
func runTraced(ctx context.Context, in *inputs, seconds time.Duration, rec *record) error {
	var spans spanLog
	half := seconds / 2
	rate := in.sp.readRate

	b := newBench(in, defaultConfig())
	defer b.stop()
	if _, err := b.setup(ctx, setupsPerRun, &spans); err != nil {
		return err
	}
	plain := b.timed("nominal", rate, warmNominal, half, true)
	scrapes, err := b.scrape(20, &spans)
	if err != nil {
		return err
	}
	b.stop()

	cfg := defaultConfig()
	cfg.TraceSampleRate = 1
	cfg.TraceStoreSize = int((rate+in.sp.writeRate)*(warmNominal+half).Seconds()) + len(in.reads) + 1000
	tb := newBench(in, cfg)
	tb.traceReads = true
	defer tb.stop()
	if _, err := tb.setup(ctx, 1, &spans); err != nil {
		return err
	}
	cache0, st0 := tb.srv.Cache().Stats(), tb.srv.Stats()
	tr := tb.timed("nominal", rate, warmNominal, half, true)
	cache1, st1 := tb.srv.Cache().Stats(), tb.srv.Stats()
	retained, dropped, _ := tb.srv.Traces().Totals()
	if dropped > 0 || tb.srv.Traces().Len() < int(retained) {
		return fmt.Errorf("trace store lost traces: %d retained, %d held, %d dropped", retained, tb.srv.Traces().Len(), dropped)
	}
	traces := tb.srv.Traces().Snapshot()
	tb.stop()

	rt := map[string]time.Duration{}
	skipped, indexed := 0, 0
	for _, s := range tr.samples {
		if !s.write && s.ok {
			spans.add("bench.http", s.start, s.rt)
			rt[s.traceID] = s.rt
			skipped += s.skipped
			indexed += s.indexed
		}
	}
	sl := analyzeTraces(traces, rt)

	pr, err := probeLayers(in, &spans)
	if err != nil {
		return err
	}

	// hype
	for _, eng := range engines {
		rec.metric("hype.eval_ms."+eng, pr.evalMs[eng], "ms")
	}
	rec.metric("hype.afa_evals_per_query", pr.afaEvals, "count")
	rec.metric("hype.visited_per_query", pr.visited, "count")
	rec.metric("hype.prune_frac", pr.prune, "frac")
	rec.metric("hype.cold_eval_ms", pr.coldMs, "ms")
	rec.metric("hype.index_build_ms", median(spans.durations("bench.index_build")), "ms")
	rec.metric("colstore.build_ms", median(spans.durations("bench.colstore_build")), "ms")
	rec.metric("xmltree.parse_ms", median(spans.durations("bench.parse")), "ms")
	rec.metric("xmltree.parse_mb_per_s", pr.parseMBps, "MB/s")
	rec.metric("xpath.parse_us", pr.parseUs, "us")
	rec.metric("rewrite.rewrite_us", pr.rewriteUs, "us")
	rec.metric("rewrite.mfa_size", pr.mfaSize, "count")
	rec.metric("mfa.compile_us", pr.compileUs, "us")
	// server
	rec.metric("server.plan_build_ms", median(sl.planBuild), "ms")
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	rec.metric("server.plan_hit_frac", float64(cache1.Hits-cache0.Hits)/float64(max(lookups, 1)), "frac")
	rec.metric("server.http_self_ms", median(sl.httpSelf), "ms")
	rec.metric("server.query_self_ms", median(sl.querySelf), "ms")
	rec.metric("server.admit_wait_ms", mean(sl.admit), "ms")
	rec.metric("server.shed_frac", float64(st1.Shed-st0.Shed)/float64(max(st1.Requests-st0.Requests, 1)), "frac")
	// corpus
	rec.metric("corpus.open_s", median(spans.durations("bench.corpus_open"))/1000, "s")
	rec.metric("corpus.prefilter_skip_frac", float64(skipped)/float64(max(indexed, 1)), "frac")
	rec.metric("corpus.doc_eval_ms", median(sl.docEval), "ms")
	rec.metric("corpus.fanout_self_ms", median(sl.fanoutSelf), "ms")
	rec.metric("corpus.admit_wait_ms", mean(sl.corpusAdmit), "ms")
	// tracing and telemetry
	p50Plain, p50Traced := median(plain.latencies(false)), median(tr.latencies(false))
	rec.metric("trace.overhead_frac", (p50Traced-p50Plain)/p50Plain, "frac")
	rec.metric("telemetry.scrape_ms", median(scrapes), "ms")
	// runtime and load generator, from the untraced phase
	rec.metric("runtime.gc_cpu_frac", (plain.after.gcCPU-plain.before.gcCPU)/max(plain.after.totalCPU-plain.before.totalCPU, 1e-9), "frac")
	rec.metric("runtime.gc_pause_p99_ms", pauseP99(plain.before, plain.after), "ms")
	rec.metric("runtime.goroutines_peak", float64(plain.goroutines), "count")
	var lags []float64
	sent := 0
	for _, s := range plain.samples {
		if s.rt > 0 {
			sent++
			lags = append(lags, ms(s.lag))
		}
	}
	rec.metric("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	rec.metric("loadgen.sent", float64(sent), "count")
	rec.metric("loadgen.completed", float64(plain.completed()), "count")

	self := map[string]spanStat{}
	for name, xs := range sl.selfMs {
		self[name] = spanStat{MedianMs: median(xs), MeanMs: mean(xs), Count: len(xs)}
	}
	rec.Detail["span_self_ms"] = self
	rec.Detail["traces_retained"] = len(traces)
	rec.Detail["read_p50_ms_untraced"] = p50Plain
	rec.Detail["read_p50_ms_traced"] = p50Traced
	rec.Detail["probe_queries"] = pr.queries
	exact := map[string]float64{}
	for _, k := range exactCounts {
		exact[k] = rec.Metrics[k].Value
	}
	rec.Detail["exact_counts"] = exact
	rec.Spans = spans.all()
	rec.finish(b, tb)
	return nil
}

// exactCounts are the per-layer metrics that repeat exactly between runs
// of the same seed; compare mode checks them for equality.
var exactCounts = []string{
	"hype.visited_per_query",
	"hype.prune_frac",
	"hype.afa_evals_per_query",
	"rewrite.mfa_size",
	"corpus.prefilter_skip_frac",
}

// scrape times n GET /metrics round trips.
func (b *bench) scrape(n int, spans *spanLog) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		resp, err := b.client.Get(b.base + "/metrics")
		if err != nil {
			return nil, err
		}
		_, err = drain(resp)
		d := time.Since(t)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
		}
		spans.add("bench.scrape", t, d)
		out = append(out, ms(d))
	}
	return out, nil
}
