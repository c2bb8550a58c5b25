package main

import (
	"context"
	"time"

	"smoqe"
	"smoqe/internal/hospital"
)

// probeResult is the per-layer numbers timed by direct calls on the
// workload's own documents and queries.
type probeResult struct {
	evalMs    map[string]float64
	coldMs    float64
	afaEvals  float64
	visited   float64
	prune     float64
	parseMBps float64
	parseUs   float64
	rewriteUs float64
	compileUs float64
	mfaSize   float64
	queries   int
}

// probeReps is how often each direct call is repeated; the median counts.
const probeReps = 3

// Probe sizes: how many churn pool queries and corpus documents the direct
// layer timings use.
const (
	probePool       = 60
	probeCorpusDocs = 4
)

// probeDoc is one probed document in its three evaluable forms.
type probeDoc struct {
	doc      *smoqe.Document
	idx      *smoqe.Index
	col      *smoqe.ColumnarDocument
	elements int
}

// probeLayers times the parse, columnar build, index build, plan build and
// evaluation layers directly, on the workload's documents and queries,
// recording each call as a span, and computes the exact-repeat counts
// (visited elements, AFA evaluations, pruning) on the hype engine.
func probeLayers(in *inputs, spans *spanLog) (probeResult, error) {
	pr := probeResult{evalMs: map[string]float64{}}
	var xmls []string
	switch {
	case in.corpusDir != "":
		xmls = in.corpusXML[:min(probeCorpusDocs, len(in.corpusXML))]
	case in.sp.name == "churn":
		xmls = in.contents[:churnContents]
	default:
		xmls = in.contents[:1]
	}
	var docs []probeDoc
	var bytes, secs float64
	for _, x := range xmls {
		var pd probeDoc
		var parse []float64
		for r := 0; r < probeReps; r++ {
			t := time.Now()
			d, err := smoqe.ParseDocumentString(x)
			el := time.Since(t)
			if err != nil {
				return pr, err
			}
			spans.add("bench.parse", t, el)
			parse = append(parse, el.Seconds())
			pd.doc = d
		}
		bytes += float64(len(x))
		secs += median(parse)
		for r := 0; r < probeReps; r++ {
			t := time.Now()
			pd.col = smoqe.BuildColumnar(pd.doc)
			spans.add("bench.colstore_build", t, time.Since(t))
			t = time.Now()
			pd.idx = smoqe.BuildIndex(pd.doc, true)
			spans.add("bench.index_build", t, time.Since(t))
		}
		pd.elements = pd.doc.ComputeStats().Elements
		docs = append(docs, pd)
	}
	pr.parseMBps = bytes / (1 << 20) / secs

	queries := probeQueries(in)
	pr.queries = len(queries)
	sigma := hospital.Sigma0()
	ctx := context.Background()
	var parseUs, rewriteUs, compileUs, cold, mfaSizes []float64
	evals := map[string][]float64{}
	var afa, visited, prune float64
	items := 0
	for _, q := range queries {
		var plan *smoqe.PreparedQuery
		for r := 0; r < probeReps; r++ {
			var err error
			if q.onView {
				plan, err = smoqe.PrepareStringOnView(sigma, q.text)
			} else {
				plan, err = smoqe.PrepareString(q.text)
			}
			if err != nil {
				return pr, err
			}
			tm := plan.Timings()
			parseUs = append(parseUs, float64(tm.Parse)/1e3)
			if q.onView {
				rewriteUs = append(rewriteUs, float64(tm.Rewrite)/1e3)
			} else {
				compileUs = append(compileUs, float64(tm.Compile)/1e3)
			}
			// The first evaluation of a fresh plan warms its lazy DFA.
			t := time.Now()
			if _, _, err := plan.EvalCtx(ctx, docs[0].doc.Root); err != nil {
				return pr, err
			}
			spans.add("bench.cold_eval", t, time.Since(t))
			cold = append(cold, ms(time.Since(t)))
		}
		if q.onView {
			pq, err := smoqe.ParseQuery(q.text)
			if err != nil {
				return pr, err
			}
			mfaSizes = append(mfaSizes, float64(smoqe.ExplainPlan(pq, sigma, plan.MFA()).MFASize))
		}
		for _, pd := range docs {
			_, st, err := plan.EvalCtx(ctx, pd.doc.Root)
			if err != nil {
				return pr, err
			}
			afa += float64(st.AFAEvaluations)
			visited += float64(st.VisitedElements)
			prune += st.PruneRate(pd.elements)
			items++
			for _, eng := range engines {
				var ts []float64
				for r := 0; r < probeReps; r++ {
					t := time.Now()
					switch eng {
					case "hype":
						_, _, err = plan.EvalCtx(ctx, pd.doc.Root)
					case "opthype":
						_, _, err = plan.EvalIndexedCtx(ctx, pd.doc.Root, pd.idx)
					default:
						_, _, err = plan.EvalColumnarCtx(ctx, pd.col)
					}
					if err != nil {
						return pr, err
					}
					el := time.Since(t)
					spans.add("bench.eval."+eng, t, el)
					ts = append(ts, ms(el))
				}
				evals[eng] = append(evals[eng], median(ts))
			}
		}
	}
	for _, eng := range engines {
		pr.evalMs[eng] = mean(evals[eng])
	}
	pr.coldMs = median(cold)
	pr.parseUs = median(parseUs)
	pr.rewriteUs = median(rewriteUs)
	pr.compileUs = median(compileUs)
	pr.mfaSize = mean(mfaSizes)
	pr.afaEvals = afa / float64(items)
	pr.visited = visited / float64(items)
	pr.prune = prune / float64(items)
	return pr, nil
}

// probeQueries is the query set the direct timings use: the workload's
// distinct queries, or for churn the first probePool of its pool.
func probeQueries(in *inputs) []namedQuery {
	var out []namedQuery
	seen := map[string]bool{}
	for _, r := range in.reads {
		key := r.view + "|" + r.query
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, namedQuery{name: r.class, text: r.query, onView: r.view != ""})
		if len(out) == probePool {
			break
		}
	}
	return out
}
