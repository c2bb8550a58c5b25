package smoqe

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/trace"
)

// PreparedQuery is a query that has been parsed, (optionally) rewritten
// over a view, compiled to an MFA and bound to a pool of HyPE engines —
// the expensive O(|Q|²|σ||D_V|²) work is done exactly once, evaluation
// happens many times, concurrently.
//
// Unlike Engine, a PreparedQuery IS safe for concurrent use: every Eval
// borrows an independent Engine.Clone from an internal sync.Pool (clones
// share the immutable automaton metadata but keep private run state), so
// any number of goroutines may evaluate simultaneously against the same or
// different documents. This is the unit the serving layer
// (internal/server) caches and shares across requests.
//
// Lifecycle:
//
//	p, _ := smoqe.PrepareOnView(v, q)   // once: parse → rewrite → compile
//	...
//	nodes := p.Eval(doc.Root)           // many times, from any goroutine
//	st := p.Stats()                     // aggregated across all runs
//
// PlanTimings records how long each preparation phase of a plan took —
// the per-phase cost breakdown the §7 experiments (and the EXPLAIN
// output) report. Phases that did not run for this plan stay zero: a
// direct Prepare has no Rewrite, a PrepareOnView folds compilation into
// the rewrite, a PrepareMFA did all its work elsewhere.
type PlanTimings struct {
	// Parse is the query parsing time (only when the plan was prepared
	// from concrete syntax).
	Parse time.Duration `json:"parse_ns"`
	// Rewrite is the view rewriting time, including the internal compile
	// and simplification passes (Algorithm rewrite, §5).
	Rewrite time.Duration `json:"rewrite_ns"`
	// Compile is the query→MFA compilation time for direct plans (§4).
	Compile time.Duration `json:"compile_ns"`
}

// Total sums the recorded phases.
func (t PlanTimings) Total() time.Duration { return t.Parse + t.Rewrite + t.Compile }

type PreparedQuery struct {
	m       *MFA
	pool    *enginePool
	timings PlanTimings

	// limits are armed on every engine clone borrowed for an evaluation;
	// the zero value is unlimited. See SetLimits.
	limits hype.Limits

	// opt maps a document's index to a pool of OptHyPE clones. All clones
	// for one index share that single index (it is read-only after build).
	// A replaced document brings a new index, so the map holds at most
	// maxIndexPools entries and is cleared wholesale when full: a cached
	// plan never pins more than that many superseded indexes.
	mu  sync.Mutex
	opt map[*Index]*enginePool // guarded by mu

	// pf is the corpus-level document prefilter, built lazily (most
	// prepared queries never query a collection) and shared — a Prefilter
	// is immutable.
	pfOnce sync.Once
	pf     *hype.Prefilter

	evals   atomic.Int64
	visited atomic.Int64
	skipSub atomic.Int64
	skipEle atomic.Int64
	cansV   atomic.Int64
	cansE   atomic.Int64
	afaEv   atomic.Int64
}

// Prefilter returns the query's document-level prefilter: a sound,
// fingerprint-only test that a document cannot contain an answer. Built on
// first use and cached; safe for concurrent use.
func (p *PreparedQuery) Prefilter() *hype.Prefilter {
	p.pfOnce.Do(func() { p.pf = hype.NewPrefilter(p.m) })
	return p.pf
}

// enginePool hands out independent clones of one prototype engine.
type enginePool struct {
	pool sync.Pool
}

func newEnginePool(proto *Engine) *enginePool {
	ep := &enginePool{}
	ep.pool.New = func() any { return proto.Clone() }
	return ep
}

// Prepare compiles q into a reusable, concurrency-safe prepared query.
func Prepare(q Query) (*PreparedQuery, error) {
	start := time.Now()
	m, err := mfa.Compile(q)
	if err != nil {
		return nil, err
	}
	p := PrepareMFA(m)
	p.timings.Compile = time.Since(start)
	return p, nil
}

// PrepareString is Prepare for a query in concrete syntax.
func PrepareString(qsrc string) (*PreparedQuery, error) {
	start := time.Now()
	q, err := ParseQuery(qsrc)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	p.timings.Parse = parse
	return p, nil
}

// PrepareOnView rewrites q (posed on the view) into a source automaton and
// prepares it: each Eval then returns the source nodes backing Q(σ(T))
// without materializing the view.
func PrepareOnView(v *View, q Query) (*PreparedQuery, error) {
	start := time.Now()
	m, err := rewrite.Rewrite(v, q)
	if err != nil {
		return nil, err
	}
	p := PrepareMFA(m)
	p.timings.Rewrite = time.Since(start)
	return p, nil
}

// PrepareStringOnView parses qsrc and rewrites it over v, recording both
// phase timings — the form the serving layer uses so EXPLAIN can report
// the parse/rewrite cost split of a cached plan.
func PrepareStringOnView(v *View, qsrc string) (*PreparedQuery, error) {
	start := time.Now()
	q, err := ParseQuery(qsrc)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	p, err := PrepareOnView(v, q)
	if err != nil {
		return nil, err
	}
	p.timings.Parse = parse
	return p, nil
}

// PrepareMFA wraps an already-built automaton (compiled, rewritten, merged
// or deserialized with ReadMFA) into a prepared query.
func PrepareMFA(m *MFA) *PreparedQuery {
	return &PreparedQuery{m: m, pool: newEnginePool(hype.New(m))}
}

// MFA returns the underlying automaton.
func (p *PreparedQuery) MFA() *MFA { return p.m }

// Timings returns the recorded preparation phase durations.
func (p *PreparedQuery) Timings() PlanTimings { return p.timings }

// SetLimits arms resource budgets (see EvalLimits) on every subsequent
// evaluation of this plan; the zero value disarms them. Exceeded budgets
// surface as a *EvalLimitError from the error-returning Eval forms; the
// error-less legacy forms return an empty answer for an aborted run. Must
// not be called concurrently with evaluations.
func (p *PreparedQuery) SetLimits(l EvalLimits) { p.limits = l }

// Limits returns the armed resource budgets.
func (p *PreparedQuery) Limits() EvalLimits { return p.limits }

// withEngine runs fn with an engine clone borrowed from ep — the single
// chokepoint of every evaluation path. It arms the plan's resource budgets
// on the clone and isolates panics: a panic inside fn (a poisoned
// query/document pair, an injected fault) becomes a *guard.PanicError
// return, and the clone — whose internal state is suspect after unwinding
// mid-DFS — is dropped instead of re-pooled, so one poisoned run can never
// contaminate later borrowers.
func (p *PreparedQuery) withEngine(ep *enginePool, fn func(e *Engine) error) (err error) {
	e := ep.pool.Get().(*Engine)
	defer func() {
		if r := recover(); r != nil {
			err = guard.Recovered("eval", r)
			return
		}
		ep.pool.Put(e)
	}()
	e.SetLimits(p.limits)
	err = fn(e)
	return err
}

// Eval evaluates the prepared query at ctx with HyPE. Safe to call from
// any number of goroutines concurrently.
func (p *PreparedQuery) Eval(ctx *Node) []*Node {
	nodes, _ := p.EvalWithStats(ctx)
	return nodes
}

// EvalWithStats is Eval additionally returning the engine statistics of
// exactly this run. Because every Eval borrows a private engine clone,
// the returned value is exact even when any number of goroutines share
// the plan — this is what per-request reporting must use (reading the
// aggregate Stats() before and after is racy by construction).
func (p *PreparedQuery) EvalWithStats(ctx *Node) ([]*Node, EngineStats) {
	var res []*Node
	var st EngineStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		res, st = e.EvalWithStats(ctx)
		return nil
	})
	if err != nil {
		// Legacy error-less form: a recovered panic yields an empty answer
		// (the error-returning forms report it; the daemon uses those).
		return nil, st
	}
	p.account(st)
	return res, st
}

// EvalTraced is EvalWithStats plus a capped per-node decision trace (see
// hype.Trace); limit <= 0 applies hype.DefaultTraceLimit. Safe for
// concurrent use; the trace belongs to this run alone.
func (p *PreparedQuery) EvalTraced(ctx *Node, limit int) ([]*Node, EngineStats, *Trace) {
	var res []*Node
	var st EngineStats
	var tr *Trace
	err := p.withEngine(p.pool, func(e *Engine) error {
		res, st, tr = e.EvalTraced(ctx, limit)
		return nil
	})
	if err != nil {
		return nil, st, tr
	}
	p.account(st)
	return res, st, tr
}

// EvalIndexed evaluates with OptHyPE against the given subtree index,
// which must have been built from the document ctx belongs to. Clones for
// the same index share it; distinct indexes get distinct pools. Safe for
// concurrent use.
func (p *PreparedQuery) EvalIndexed(ctx *Node, idx *Index) []*Node {
	nodes, _ := p.EvalIndexedWithStats(ctx, idx)
	return nodes
}

// EvalIndexedWithStats is EvalIndexed returning this run's exact
// statistics (see EvalWithStats).
func (p *PreparedQuery) EvalIndexedWithStats(ctx *Node, idx *Index) ([]*Node, EngineStats) {
	var res []*Node
	var st EngineStats
	err := p.withEngine(p.indexPool(idx), func(e *Engine) error {
		res, st = e.EvalWithStats(ctx)
		return nil
	})
	if err != nil {
		return nil, st
	}
	p.account(st)
	return res, st
}

// EvalIndexedTraced is EvalIndexed with per-run statistics and a capped
// decision trace; index prunes appear with their skipped-element counts.
func (p *PreparedQuery) EvalIndexedTraced(ctx *Node, idx *Index, limit int) ([]*Node, EngineStats, *Trace) {
	var res []*Node
	var st EngineStats
	var tr *Trace
	err := p.withEngine(p.indexPool(idx), func(e *Engine) error {
		res, st, tr = e.EvalTraced(ctx, limit)
		return nil
	})
	if err != nil {
		return nil, st, tr
	}
	p.account(st)
	return res, st, tr
}

// EvalColumnarCtx evaluates the prepared query over a columnar document
// (the root is the context node), honoring context cancellation and the
// plan's resource limits, and returns the preorder ids of the answer nodes
// in document order. Safe for concurrent use.
func (p *PreparedQuery) EvalColumnarCtx(ctx context.Context, cd *ColumnarDocument) ([]int, EngineStats, error) {
	ctx, sp := trace.Start(ctx, "eval.columnar")
	defer sp.End()
	var ids []int
	var st EngineStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		var err error
		ids, st, err = e.EvalColumnarCtx(ctx, cd)
		return err
	})
	if err == nil {
		p.account(st)
	} else {
		sp.Error(err)
	}
	return ids, st, err
}

// maxIndexPools bounds PreparedQuery.opt. It is well above the number of
// documents a plan is usually evaluated against at once, so in steady state
// the map only clears after enough replacements to fill it with indexes of
// superseded documents.
const maxIndexPools = 32

func (p *PreparedQuery) indexPool(idx *Index) *enginePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep, ok := p.opt[idx]
	if !ok {
		if p.opt == nil || len(p.opt) >= maxIndexPools {
			p.opt = make(map[*Index]*enginePool)
		}
		ep = newEnginePool(hype.NewOpt(p.m, idx))
		p.opt[idx] = ep
	}
	return ep
}

// EvalTagged evaluates a batch automaton (see Merge) in one pass and
// returns each merged machine's answers indexed by tag. Safe for
// concurrent use.
func (p *PreparedQuery) EvalTagged(ctx *Node) [][]*Node {
	res, _ := p.EvalTaggedWithStats(ctx)
	return res
}

// EvalTaggedWithStats is EvalTagged returning this run's exact
// statistics.
func (p *PreparedQuery) EvalTaggedWithStats(ctx *Node) ([][]*Node, EngineStats) {
	var res [][]*Node
	var st EngineStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		res, st = e.EvalTaggedWithStats(ctx)
		return nil
	})
	if err != nil {
		return nil, st
	}
	p.account(st)
	return res, st
}

// EvalCtx is EvalWithStats honoring context cancellation: the DFS polls
// ctx and aborts promptly (within a few hundred visited elements) once the
// context is done, returning ctx's error and the partial statistics of the
// aborted run. Cancelled runs are not counted in Stats(). Safe for
// concurrent use.
func (p *PreparedQuery) EvalCtx(ctx context.Context, n *Node) ([]*Node, EngineStats, error) {
	ctx, sp := trace.Start(ctx, "eval.hype")
	defer sp.End()
	var res []*Node
	var st EngineStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		var err error
		res, st, err = e.EvalCtx(ctx, n)
		return err
	})
	if err == nil {
		p.account(st)
	} else {
		sp.Error(err)
	}
	return res, st, err
}

// EvalIndexedCtx is EvalIndexedWithStats honoring context cancellation
// (see EvalCtx).
func (p *PreparedQuery) EvalIndexedCtx(ctx context.Context, n *Node, idx *Index) ([]*Node, EngineStats, error) {
	ctx, sp := trace.Start(ctx, "eval.opthype")
	defer sp.End()
	var res []*Node
	var st EngineStats
	err := p.withEngine(p.indexPool(idx), func(e *Engine) error {
		var err error
		res, st, err = e.EvalCtx(ctx, n)
		return err
	})
	if err == nil {
		p.account(st)
	} else {
		sp.Error(err)
	}
	return res, st, err
}

// EvalTaggedCtx is EvalTaggedWithStats honoring context cancellation (see
// EvalCtx).
func (p *PreparedQuery) EvalTaggedCtx(ctx context.Context, n *Node) ([][]*Node, EngineStats, error) {
	var res [][]*Node
	var st EngineStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		var err error
		res, st, err = e.EvalTaggedCtx(ctx, n)
		return err
	})
	if err == nil {
		p.account(st)
	}
	return res, st, err
}

// EvalTracedCtx is EvalTraced honoring context cancellation (see EvalCtx);
// the partial trace of an aborted run is still returned.
func (p *PreparedQuery) EvalTracedCtx(ctx context.Context, n *Node, limit int) ([]*Node, EngineStats, *Trace, error) {
	ctx, sp := trace.Start(ctx, "eval.traced")
	defer sp.End()
	var res []*Node
	var st EngineStats
	var tr *Trace
	err := p.withEngine(p.pool, func(e *Engine) error {
		var err error
		res, st, tr, err = e.EvalTracedCtx(ctx, n, limit)
		return err
	})
	if err == nil {
		p.account(st)
	} else {
		sp.Error(err)
	}
	return res, st, tr, err
}

// EvalIndexedTracedCtx is EvalIndexedTraced honoring context cancellation
// (see EvalCtx).
func (p *PreparedQuery) EvalIndexedTracedCtx(ctx context.Context, n *Node, idx *Index, limit int) ([]*Node, EngineStats, *Trace, error) {
	ctx, sp := trace.Start(ctx, "eval.traced")
	defer sp.End()
	var res []*Node
	var st EngineStats
	var tr *Trace
	err := p.withEngine(p.indexPool(idx), func(e *Engine) error {
		var err error
		res, st, tr, err = e.EvalTracedCtx(ctx, n, limit)
		return err
	})
	if err == nil {
		p.account(st)
	} else {
		sp.Error(err)
	}
	return res, st, tr, err
}

// EvalParallelCtx evaluates with shard-parallel HyPE: the document is cut
// into independent subtrees fanned out to at most workers goroutines
// (workers <= 0 means GOMAXPROCS), with answers and statistics exactly
// those of the sequential pass (see hype.Engine.EvalParallel). The borrowed
// engine acts as the sequential planner; its workers run on private
// clones, so concurrent EvalParallelCtx calls are safe just like Eval.
func (p *PreparedQuery) EvalParallelCtx(ctx context.Context, n *Node, workers int) ([]*Node, ParallelStats, error) {
	ctx, sp := trace.Start(ctx, "eval.parallel")
	defer sp.End()
	var res []*Node
	var st ParallelStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		var err error
		res, st, err = e.EvalParallel(ctx, n, workers)
		return err
	})
	if err == nil {
		p.account(st.Stats)
	} else {
		sp.Error(err)
	}
	return res, st, err
}

// EvalIndexedParallelCtx is EvalParallelCtx with OptHyPE against idx; the
// index additionally gives the shard planner exact subtree sizes.
func (p *PreparedQuery) EvalIndexedParallelCtx(ctx context.Context, n *Node, idx *Index, workers int) ([]*Node, ParallelStats, error) {
	ctx, sp := trace.Start(ctx, "eval.parallel")
	defer sp.End()
	var res []*Node
	var st ParallelStats
	err := p.withEngine(p.indexPool(idx), func(e *Engine) error {
		var err error
		res, st, err = e.EvalParallel(ctx, n, workers)
		return err
	})
	if err == nil {
		p.account(st.Stats)
	} else {
		sp.Error(err)
	}
	return res, st, err
}

// EvalTaggedParallelCtx is EvalParallelCtx for batch automata (see Merge):
// one sharded pass answers every merged machine, indexed by tag.
func (p *PreparedQuery) EvalTaggedParallelCtx(ctx context.Context, n *Node, workers int) ([][]*Node, ParallelStats, error) {
	var res [][]*Node
	var st ParallelStats
	err := p.withEngine(p.pool, func(e *Engine) error {
		var err error
		res, st, err = e.EvalTaggedParallel(ctx, n, workers)
		return err
	})
	if err == nil {
		p.account(st.Stats)
	}
	return res, st, err
}

func (p *PreparedQuery) account(st EngineStats) {
	p.evals.Add(1)
	p.visited.Add(int64(st.VisitedElements))
	p.skipSub.Add(int64(st.SkippedSubtrees))
	p.skipEle.Add(int64(st.SkippedElements))
	p.cansV.Add(int64(st.CansVertices))
	p.cansE.Add(int64(st.CansEdges))
	p.afaEv.Add(int64(st.AFAEvaluations))
}

// PreparedStats aggregates engine statistics over every evaluation of a
// prepared query (across all goroutines and documents).
type PreparedStats struct {
	// Evaluations is the number of completed Eval/EvalIndexed/EvalTagged
	// calls.
	Evaluations int64
	// Engine sums the per-run HyPE statistics over all evaluations.
	Engine EngineStats
}

// Stats returns a snapshot of the aggregated statistics.
func (p *PreparedQuery) Stats() PreparedStats {
	return PreparedStats{
		Evaluations: p.evals.Load(),
		Engine: EngineStats{
			VisitedElements: int(p.visited.Load()),
			SkippedSubtrees: int(p.skipSub.Load()),
			SkippedElements: int(p.skipEle.Load()),
			CansVertices:    int(p.cansV.Load()),
			CansEdges:       int(p.cansE.Load()),
			AFAEvaluations:  int(p.afaEv.Load()),
		},
	}
}
