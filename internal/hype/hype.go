package hype

import (
	"context"
	"fmt"
	"math/bits"

	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
)

// Engine evaluates one MFA over documents. Without an index it is the
// paper's HyPE; with an index (see BuildIndex) it is OptHyPE/OptHyPE-C.
// An Engine is not safe for concurrent use (it keeps per-run statistics).
type Engine struct {
	m   *mfa.MFA
	idx *Index

	// Static automaton metadata, independent of any document.
	nfaWords   int
	epsAdj     [][]int32 // ε-successors per NFA state
	productive []bool    // some final NFA state is reachable from s at all
	afaClosure []afaMeta // per AFA: same-node metadata

	// Index-bound metadata (only with idx != nil): afaNext[g][t] holds the
	// labels TRANS states in the same-node closure of state t of AFA g may
	// consume; afaWild marks wildcard steps; aliveCache memoizes
	// aliveUnder per interned strict-subtree label set.
	afaNext    [][]LabelSet
	afaWild    [][]bool
	aliveCache []*aliveInfo          // compressed index: by interned set id
	aliveByKey map[string]*aliveInfo // plain index, >64 labels: by set content
	aliveByW   map[uint64]*aliveInfo // plain index, ≤64 labels: by the single word
	// Text analysis per AFA state (full-graph reachability): afaAlways
	// marks states whose truth does not hinge on a specific text value (a
	// NOT or a predicate-free/position final is reachable); afaTextMasks
	// lists the Bloom masks of the text constants whose finals the state
	// can reach — if none of them occurs in a subtree, the state is
	// provably false there.
	afaAlways    [][]bool
	afaTextMasks [][][]uint64
	// usedLabels is the union of all labels any automaton transition can
	// consume (restricted to labels present in the indexed document);
	// subtrees whose alphabet covers it can never be pruned by alphabet
	// reasoning, which short-circuits the per-child useful() check.
	usedLabels LabelSet

	// limits are the armed resource budgets (see SetLimits); the zero
	// value is unlimited. Shared with clones, enforced per run.
	limits Limits

	// prog is the compiled evaluation program (compile.go), immutable and
	// shared by clones; dfa is this clone's lazy subset-automaton cache
	// (never shared — Clone resets it). compiledOff selects the interpreted
	// sequential pointer reference (SetCompiled), dfaCap overrides the cache
	// bound for tests, and lastCompiled keeps the most recent run's
	// compiled-layer statistics.
	prog         *program
	dfa          *dfaCache
	dfaCap       int
	compiledOff  bool
	lastCompiled CompiledStats

	stats Stats
}

// afaMeta holds per-AFA static metadata.
type afaMeta struct {
	words int
	// sameKids[t] lists same-node successors of state t.
	sameKids [][]int32
	// hasLocal[t] reports whether t's truth at a node can be decided
	// without consuming a child step: a FINAL or NOT state is reachable
	// from t through same-node edges (NOT can be true because its child
	// is false).
	hasLocal []bool
}

// Stats reports what one Eval run did; the §7 pruning percentages come
// from VisitedElements versus the document's element count.
type Stats struct {
	// VisitedElements is the number of element nodes the DFS entered.
	VisitedElements int
	// SkippedSubtrees is the number of child subtrees pruned.
	SkippedSubtrees int
	// SkippedElements is the number of element nodes inside pruned
	// subtrees; it is only filled when an index is present (the index
	// knows subtree sizes), otherwise it stays 0.
	SkippedElements int
	// CansVertices and CansEdges measure the candidate-answer DAG.
	CansVertices int
	CansEdges    int
	// AFAEvaluations counts per-node AFA evaluations.
	AFAEvaluations int
}

// New returns a HyPE engine for the MFA (no index).
func New(m *mfa.MFA) *Engine {
	e := &Engine{m: m}
	e.precompute()
	return e
}

// NewOpt returns an OptHyPE engine: HyPE plus index-based subtree skipping
// and dead-state filtering. The index must have been built from the same
// document that Eval will receive.
func NewOpt(m *mfa.MFA, idx *Index) *Engine {
	e := &Engine{m: m, idx: idx}
	e.precompute()
	e.prepareIndexMeta()
	return e
}

// Stats returns the statistics of the most recent Eval run.
func (e *Engine) Stats() Stats { return e.stats }

// Clone returns an independent engine over the same automaton (and index):
// the immutable automaton metadata is shared, while per-run statistics and
// the lazily built alive-set caches are private, so clones may evaluate
// concurrently on different goroutines.
func (e *Engine) Clone() *Engine {
	c := *e
	c.stats = Stats{}
	if c.aliveCache != nil {
		c.aliveCache = make([]*aliveInfo, len(e.aliveCache))
	}
	c.aliveByKey = nil
	c.aliveByW = nil
	c.dfa = nil
	c.lastCompiled = CompiledStats{}
	return &c
}

// MFA returns the automaton the engine evaluates.
func (e *Engine) MFA() *mfa.MFA { return e.m }

func (e *Engine) precompute() {
	n := e.m.NumStates()
	e.nfaWords = (n + 63) / 64
	if e.nfaWords == 0 {
		e.nfaWords = 1
	}
	e.epsAdj = make([][]int32, n)
	for s := 0; s < n; s++ {
		eps := e.m.States[s].Eps
		adj := make([]int32, len(eps))
		for i, t := range eps {
			adj[i] = int32(t)
		}
		e.epsAdj[s] = adj
	}
	// productive: any final reachable through ε and label edges.
	e.productive = make([]bool, n)
	for s := 0; s < n; s++ {
		e.productive[s] = e.m.States[s].Final
	}
	fixpointReach(n, e.productive, func(s int, mark func(int)) {
		for _, t := range e.m.States[s].Eps {
			mark(t)
		}
		for _, tr := range e.m.States[s].Trans {
			mark(tr.To)
		}
	})
	// Guarded states need their AFA evaluated even if unproductive paths
	// hang off them — but an unproductive state can never contribute an
	// answer, so filtering it (and its guard work) is sound.

	e.afaClosure = make([]afaMeta, len(e.m.AFAs))
	for i, a := range e.m.AFAs {
		e.afaClosure[i] = buildAFAMeta(a)
	}
	e.prog = buildProgram(e)
}

// fixpointReach marks, in marked, every state from which a marked state is
// reachable via the successor relation succ (i.e. backwards closure done
// forwards by iteration; state counts are small enough that the quadratic
// worst case does not matter).
func fixpointReach(n int, marked []bool, succ func(s int, mark func(int))) {
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			if marked[s] {
				continue
			}
			succ(s, func(t int) {
				if !marked[s] && marked[t] {
					marked[s] = true
					changed = true
				}
			})
		}
	}
}

func buildAFAMeta(a *mfa.AFA) afaMeta {
	n := a.NumStates()
	meta := afaMeta{
		words:    (n + 63) / 64,
		sameKids: make([][]int32, n),
		hasLocal: make([]bool, n),
	}
	if meta.words == 0 {
		meta.words = 1
	}
	for t := 0; t < n; t++ {
		st := a.States[t]
		switch st.Kind {
		case mfa.AFAFinal:
			meta.hasLocal[t] = true
		case mfa.AFANot:
			meta.hasLocal[t] = true
			meta.sameKids[t] = []int32{int32(st.Kids[0])}
		case mfa.AFAAnd, mfa.AFAOr:
			kids := make([]int32, len(st.Kids))
			for i, k := range st.Kids {
				kids[i] = int32(k)
			}
			meta.sameKids[t] = kids
		}
	}
	// Propagate hasLocal backwards over same-node edges.
	fixpointReach(n, meta.hasLocal, func(s int, mark func(int)) {
		for _, t := range meta.sameKids[s] {
			mark(int(t))
		}
	})
	return meta
}

// nfaSet is a bitset over NFA states.
type nfaSet []uint64

func (s nfaSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s nfaSet) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }

// intersects reports whether the two bitsets share a member.
func (s nfaSet) intersects(o nfaSet) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// count returns the number of set bits.
func (s nfaSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every set bit in ascending order.
func (s nfaSet) forEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Eval computes ctx[[M]] with a single depth-first pass over the subtree of
// ctx followed by one traversal of the cans DAG (Algorithm HyPE, Fig. 6).
func (e *Engine) Eval(ctx *xmltree.Node) []*xmltree.Node {
	nodes, _ := e.EvalWithStats(ctx)
	return nodes
}

// EvalWithStats is Eval returning this run's statistics as a value — the
// form concurrent callers (engine-clone pools) need: the returned Stats
// belong to exactly this run, with no shared mutable state involved.
func (e *Engine) EvalWithStats(ctx *xmltree.Node) ([]*xmltree.Node, Stats) {
	hits, st, _ := e.run(nil, ctx, nil)
	return candNodes(hits), st
}

// EvalCtx is EvalWithStats honoring a context: the DFS checks ctx every
// cancelCheckInterval visited elements and unwinds promptly once it is
// cancelled, returning ctx's error and the (partial, meaningless beyond
// accounting) statistics of the aborted run. A nil-Done context costs one
// Err() call per interval.
func (e *Engine) EvalCtx(ctx context.Context, n *xmltree.Node) ([]*xmltree.Node, Stats, error) {
	hits, st, err := e.run(ctx, n, nil)
	if err != nil {
		return nil, st, err
	}
	return candNodes(hits), st, nil
}

// EvalTagged evaluates a batch automaton (see mfa.Merge) in ONE pass and
// returns the answer set of every merged machine, indexed by tag. The
// slice has m.NumTags() entries.
func (e *Engine) EvalTagged(ctx *xmltree.Node) [][]*xmltree.Node {
	out, _ := e.EvalTaggedWithStats(ctx)
	return out
}

// EvalTaggedWithStats is EvalTagged returning this run's statistics.
func (e *Engine) EvalTaggedWithStats(ctx *xmltree.Node) ([][]*xmltree.Node, Stats) {
	hits, st, _ := e.run(nil, ctx, nil)
	return taggedNodes(e.m.NumTags(), hits), st
}

// EvalTaggedCtx is EvalTaggedWithStats honoring a context (see EvalCtx).
func (e *Engine) EvalTaggedCtx(ctx context.Context, n *xmltree.Node) ([][]*xmltree.Node, Stats, error) {
	hits, st, err := e.run(ctx, n, nil)
	if err != nil {
		return nil, st, err
	}
	return taggedNodes(e.m.NumTags(), hits), st, nil
}

// taggedNodes groups candidate hits by their result tag and normalizes each
// group to sorted document order.
func taggedNodes(numTags int, hits []cand) [][]*xmltree.Node {
	out := make([][]*xmltree.Node, numTags)
	for _, c := range hits {
		out[c.tag] = append(out[c.tag], c.node)
	}
	for i := range out {
		out[i] = xmltree.SortNodes(out[i])
	}
	return out
}

func candNodes(hits []cand) []*xmltree.Node {
	answers := make([]*xmltree.Node, 0, len(hits))
	for _, c := range hits {
		answers = append(answers, c.node)
	}
	return xmltree.SortNodes(answers)
}

// run performs the single DFS pass plus the cans traversal and returns the
// surviving candidate answers with the run's statistics. Statistics
// accumulate in the run value, not the engine, so the result is exact for
// this run regardless of what other clones do; e.stats keeps the last
// run's copy for the legacy Stats() accessor. A non-nil cctx cancels the
// DFS: run then returns cctx's error and whatever partial statistics the
// aborted pass accumulated.
func (e *Engine) run(cctx context.Context, ctx *xmltree.Node, tr *Trace) ([]cand, Stats, error) {
	if cctx != nil {
		if err := cctx.Err(); err != nil {
			e.stats = Stats{}
			return nil, Stats{}, err
		}
	}
	r := e.newRun(cctx, tr)
	var res visitResult
	if e.compiledOff {
		e.lastCompiled = CompiledStats{}
		ms := r.getNFASet()
		ms.set(e.m.Start)
		r.closeNFA(ms)
		seeds := r.guardSeeds(ms)
		res = r.visit(ctx, ms, seeds)
	} else {
		d := e.ensureDFA()
		pre := d.snap()
		root, seeds := r.rootStateC()
		res = r.visitC(ctx, root, seeds)
		e.lastCompiled = d.delta(pre)
		if tr != nil {
			cs := e.lastCompiled
			tr.Compiled = &cs
		}
	}
	return r.finish(res)
}

// newRun starts one evaluation on e: private statistics, the optional
// trace and cancellation context, and a fresh budget when limits are
// armed.
func (e *Engine) newRun(cctx context.Context, tr *Trace) *run {
	r := &run{Engine: e, trace: tr, ctx: cctx}
	if e.limits.active() {
		r.bud = &budget{}
	}
	return r
}

// finish ends a sequential run whose DFS returned the root's result res:
// an aborted run reports its error (the exceeded budget, else the
// context's) with its partial statistics; a complete one walks the cans
// DAG (phase 2) and returns the surviving candidates.
func (r *run) finish(res visitResult) ([]cand, Stats, error) {
	if r.cancelled {
		r.Engine.stats = r.stats
		return nil, r.stats, r.abortErr()
	}
	hits := r.liveCands(res)
	r.stats.CansVertices = r.numVerts
	r.stats.CansEdges = len(r.edgeList)
	r.Engine.stats = r.stats
	return hits, r.stats, nil
}

// abortErr is the reason a cancelled run stopped: its exceeded budget, or
// else its context's error.
func (r *run) abortErr() error {
	if r.limitErr != nil {
		return r.limitErr
	}
	return r.ctx.Err()
}

// liveCands walks the cans DAG from the initial vertex (the root's vertex
// at the NFA start state) and returns the candidate answers reachable
// without crossing a guard-killed vertex — phase 2 of HyPE.
func (r *run) liveCands(res visitResult) []cand {
	if len(res.states) == 0 || len(r.cands) == 0 {
		return nil
	}
	startVid := int32(-1)
	for i, s := range res.states {
		if int(s) == r.m.Start {
			startVid = res.base + int32(i)
			break
		}
	}
	if startVid < 0 || r.dead[startVid] {
		return nil
	}
	// Build CSR adjacency from the flat edge list.
	offs := make([]int32, r.numVerts+1)
	for _, ep := range r.edgeList {
		offs[ep.from+1]++
	}
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	adj := make([]int32, len(r.edgeList))
	fill := make([]int32, r.numVerts)
	for _, ep := range r.edgeList {
		adj[offs[ep.from]+fill[ep.from]] = ep.to
		fill[ep.from]++
	}
	seen := make([]bool, r.numVerts)
	stack := []int32{startVid}
	seen[startVid] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[offs[v]:offs[v+1]] {
			if !seen[w] && !r.dead[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	var hits []cand
	for _, c := range r.cands {
		if seen[c.vid] {
			hits = append(hits, c)
		}
	}
	return hits
}

// cancelCheckInterval is how many visited elements pass between context
// checks in a cancellable run: frequent enough that cancellation aborts
// within microseconds, rare enough that the atomic load in Context.Err is
// invisible in profiles.
const cancelCheckInterval = 256

// run holds the per-evaluation state.
type run struct {
	*Engine

	// stats is this run's private statistics; it shadows Engine.stats so
	// concurrent clones never write shared memory mid-run.
	stats Stats
	// trace, when non-nil, records per-node decisions (capped).
	trace *Trace
	// ctx, when non-nil, lets the DFS abort early: visit polls ctx.Err()
	// every cancelCheckInterval elements and, once cancelled, every
	// remaining visit returns immediately so the recursion unwinds fast.
	ctx        context.Context
	sinceCheck int
	cancelled  bool
	// bud, when non-nil, is the run's shared resource budget (see Limits);
	// the poll window flushes consumption into it and sets limitErr (plus
	// cancelled, to unwind) once a bound is exceeded. flushedCands is how
	// many of r.cands were already flushed into the budget.
	bud          *budget
	limitErr     error
	flushedCands int

	// cans DAG, stored pointer-free so the GC never scans it: vertices
	// are just indices (numVerts), edges live in a flat list (CSR built
	// for the phase-2 traversal), dead marks guard-failed vertices, and
	// cands records the few final-state vertices with their tree nodes.
	numVerts int
	edgeList []edgePair
	dead     []bool
	cands    []cand

	// Buffer pools: evaluation is single-goroutine, so plain freelists
	// suffice and remove the per-node allocation churn. NFA bitsets all
	// share one word count; AFA bitsets and bool vectors are pooled per
	// AFA index.
	poolNFA    []nfaSet
	poolAFA    [][]nfaSet
	poolBools  [][][]bool
	poolStates [][]int32
	vecNPool   [][]nfaSet
	vecBPool   [][][]bool
	stack      []int32 // shared closure worklist

}

// cand is a candidate answer: a cans vertex at a final NFA state, with the
// tree node it would contribute (the ν annotation of the paper) and the
// final state's result tag (for batch evaluation). The pointer path fills
// node; the columnar path (coleval.go) fills id — the preorder id in the
// columnar document — and leaves node nil. Sharing the struct lets both
// paths reuse the run's cans DAG, pools and budget accounting unchanged.
type cand struct {
	vid  int32
	tag  int32
	id   int32
	node *xmltree.Node
}

// edgePair is one cans edge; edges are gathered flat and turned into CSR
// adjacency only for the final traversal (fewer, larger allocations).
type edgePair struct{ from, to int32 }

// visitResult carries what a parent needs back from a visited child.
type visitResult struct {
	states []int32 // NFA states with vertices at this node (sorted)
	base   int32   // vertex id of states[0]
	// afaVals[i] is the full truth vector of AFA i at this node, nil if
	// the AFA was not active here.
	afaVals [][]bool
}

// Pool helpers ------------------------------------------------------------

func (r *run) getNFASet() nfaSet {
	if n := len(r.poolNFA); n > 0 {
		s := r.poolNFA[n-1]
		r.poolNFA = r.poolNFA[:n-1]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make(nfaSet, r.nfaWords)
}

func (r *run) putNFASet(s nfaSet) {
	if s != nil {
		r.poolNFA = append(r.poolNFA, s)
	}
}

func (r *run) getAFASet(g int) nfaSet {
	if r.poolAFA == nil {
		r.poolAFA = make([][]nfaSet, len(r.m.AFAs))
	}
	if l := r.poolAFA[g]; len(l) > 0 {
		s := l[len(l)-1]
		r.poolAFA[g] = l[:len(l)-1]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make(nfaSet, r.afaClosure[g].words)
}

func (r *run) putAFASet(g int, s nfaSet) {
	if s != nil {
		r.poolAFA[g] = append(r.poolAFA[g], s)
	}
}

func (r *run) getBools(g int) []bool {
	if r.poolBools == nil {
		r.poolBools = make([][][]bool, len(r.m.AFAs))
	}
	if l := r.poolBools[g]; len(l) > 0 {
		b := l[len(l)-1]
		r.poolBools[g] = l[:len(l)-1]
		return b // EvalAtInto clears; accumulators are cleared below
	}
	return make([]bool, r.m.AFAs[g].NumStates())
}

func (r *run) getBoolsCleared(g int) []bool {
	b := r.getBools(g)
	for i := range b {
		b[i] = false
	}
	return b
}

func (r *run) putBools(g int, b []bool) {
	if b != nil {
		r.poolBools[g] = append(r.poolBools[g], b)
	}
}

func (r *run) getStates() []int32 {
	if n := len(r.poolStates); n > 0 {
		s := r.poolStates[n-1]
		r.poolStates = r.poolStates[:n-1]
		return s[:0]
	}
	return nil
}

func (r *run) putStates(s []int32) {
	if cap(s) > 0 {
		r.poolStates = append(r.poolStates, s)
	}
}

// getVecN returns a nil-cleared []nfaSet of length len(AFAs).
func (r *run) getVecN() []nfaSet {
	if len(r.vecNPool) > 0 {
		v := r.vecNPool[len(r.vecNPool)-1]
		r.vecNPool = r.vecNPool[:len(r.vecNPool)-1]
		for i := range v {
			v[i] = nil
		}
		return v
	}
	return make([]nfaSet, len(r.m.AFAs))
}

func (r *run) putVecN(v []nfaSet) { r.vecNPool = append(r.vecNPool, v) }

func (r *run) getVecB() [][]bool {
	if len(r.vecBPool) > 0 {
		v := r.vecBPool[len(r.vecBPool)-1]
		r.vecBPool = r.vecBPool[:len(r.vecBPool)-1]
		for i := range v {
			v[i] = nil
		}
		return v
	}
	return make([][]bool, len(r.m.AFAs))
}

func (r *run) putVecB(v [][]bool) { r.vecBPool = append(r.vecBPool, v) }

// guardSeeds collects, for every guarded state in ms, the guard AFA's entry
// state into per-AFA seed sets.
func (r *run) guardSeeds(ms nfaSet) []nfaSet {
	seeds := r.getVecN()
	ms.forEach(func(s int) {
		g := r.m.States[s].Guard
		if g < 0 {
			return
		}
		if seeds[g] == nil {
			seeds[g] = r.getAFASet(g)
		}
		seeds[g].set(r.m.GuardEntry(s))
	})
	return seeds
}

// closeNFA expands ms to its ε-closure in place.
func (r *run) closeNFA(ms nfaSet) {
	stack := r.stack[:0]
	ms.forEach(func(s int) { stack = append(stack, int32(s)) })
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range r.epsAdj[s] {
			if !ms.has(int(t)) {
				ms.set(int(t))
				stack = append(stack, t)
			}
		}
	}
	r.stack = stack[:0]
}

// closeAFA expands an AFA seed set over same-node edges in place.
func (r *run) closeAFA(g int, set nfaSet) {
	meta := &r.afaClosure[g]
	stack := r.stack[:0]
	set.forEach(func(s int) { stack = append(stack, int32(s)) })
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range meta.sameKids[s] {
			if !set.has(int(t)) {
				set.set(int(t))
				stack = append(stack, t)
			}
		}
	}
	r.stack = stack[:0]
}

// visit processes node n with active NFA states ms (ε-closed) and AFA seed
// sets fseeds (not yet closed). It fills in the cans vertices for n, visits
// relevant children, evaluates active AFAs bottom-up and returns the
// results the parent folds.
func (r *run) visit(n *xmltree.Node, ms nfaSet, fseeds []nfaSet) visitResult {
	if (r.ctx != nil || r.bud != nil) && !r.cancelled {
		if r.sinceCheck++; r.sinceCheck >= cancelCheckInterval {
			r.sinceCheck = 0
			if r.ctx != nil && r.ctx.Err() != nil {
				r.cancelled = true
			} else if r.bud != nil {
				r.checkBudget()
			}
		}
	}
	if r.cancelled {
		// Unwind without touching the tree: the empty result folds into
		// the parent as if the subtree contributed nothing, and the whole
		// run is discarded by the caller anyway.
		return visitResult{base: int32(r.numVerts)}
	}
	r.stats.VisitedElements++

	// Close AFA seed sets: rel[g] is the paper's fstates↓(n)[g] extended
	// with same-node consequences.
	rel := fseeds
	anyAFA := false
	nAFA := 0
	for g := range rel {
		if rel[g] != nil {
			r.closeAFA(g, rel[g])
			anyAFA = true
			nAFA++
		}
	}
	if r.trace != nil {
		r.trace.add(n, TraceVisit, fmt.Sprintf("nfa-states=%d active-afas=%d", ms.count(), nAFA))
	}

	res := r.openNode(n, ms)

	// Per-AFA transition accumulators (the bottom-up inputs of EvalAt).
	var transAcc [][]bool
	if anyAFA {
		transAcc = r.getVecB()
		for g := range rel {
			if rel[g] != nil {
				transAcc[g] = r.getBoolsCleared(g)
			}
		}
	}

	hasTrans := false
	ms.forEach(func(s int) {
		if len(r.m.States[s].Trans) > 0 {
			hasTrans = true
		}
	})

	if hasTrans || anyAFA {
		for _, c := range n.Children {
			if c.Kind != xmltree.Element {
				continue
			}
			r.visitChild(c, ms, rel, transAcc, &res)
		}
	}

	// Bottom-up AFA evaluation at n (fstates↑).
	if anyAFA {
		res.afaVals = r.getVecB()
		for g := range rel {
			if rel[g] == nil {
				continue
			}
			r.stats.AFAEvaluations++
			if r.trace != nil {
				r.trace.add(n, TraceAFAEval, fmt.Sprintf("X%d states=%d", g, rel[g].count()))
			}
			res.afaVals[g] = r.m.AFAs[g].EvalAtMasked(n, transAcc[g], r.getBools(g), rel[g])
			r.putBools(g, transAcc[g])
		}
		r.putVecB(transAcc)
	}

	r.killGuardFailed(n, &res)
	return res
}

// openNode allocates the cans vertices for the active NFA states at node n
// (final states become candidate answers) together with the ε edges among
// them, and returns the node's visitResult shell.
func (r *run) openNode(n *xmltree.Node, ms nfaSet) visitResult {
	res := visitResult{base: int32(r.numVerts), states: r.getStates()}
	ms.forEach(func(s int) {
		if r.m.States[s].Final {
			r.cands = append(r.cands, cand{
				vid:  int32(r.numVerts) + int32(len(res.states)),
				tag:  int32(r.m.States[s].Tag),
				node: n,
			})
		}
		res.states = append(res.states, int32(s))
		r.dead = append(r.dead, false)
	})
	r.numVerts += len(res.states)
	// ε edges among this node's vertices.
	for i, s := range res.states {
		for _, t := range r.epsAdj[s] {
			if j, ok := findState(res.states, t); ok {
				r.edgeList = append(r.edgeList, edgePair{res.base + int32(i), res.base + int32(j)})
			}
		}
	}
	return res
}

// killGuardFailed marks the vertices of res whose guard AFA came out false
// (lines 14–15 of PCans); res.afaVals must hold the node's bottom-up AFA
// values.
func (r *run) killGuardFailed(n *xmltree.Node, res *visitResult) {
	for i, s := range res.states {
		g := r.m.States[s].Guard
		if g < 0 {
			continue
		}
		var vals []bool
		if res.afaVals != nil {
			vals = res.afaVals[g]
		}
		if vals == nil || !vals[r.m.GuardEntry(int(s))] {
			r.dead[res.base+int32(i)] = true
			if r.trace != nil {
				r.trace.add(n, TraceGuardFail, fmt.Sprintf("state s%d guard X%d false", s, g))
			}
		}
	}
}

// visitChild decides whether child c needs visiting, computes its mstates
// and AFA seeds, recurses, and folds the child's AFA values and cans edges
// into the parent's accumulators.
func (r *run) visitChild(c *xmltree.Node, ms nfaSet, rel []nfaSet, transAcc [][]bool, res *visitResult) {
	cms, cseeds, ok := r.childStates(c, ms, rel)
	if !ok {
		return
	}

	cres := r.visit(c, cms, cseeds)

	r.linkChild(res, c.Label, cres.states, cres.base)
	r.foldChildAFA(rel, transAcc, c.Label, cres.afaVals)

	// Recycle the child's buffers.
	if cres.afaVals != nil {
		for g := range cres.afaVals {
			if cres.afaVals[g] != nil {
				r.putBools(g, cres.afaVals[g])
			}
		}
		r.putVecB(cres.afaVals)
	}
	r.putStates(cres.states)
	r.releaseChildStates(cms, cseeds)
}

// childStates computes the NFA state set and AFA seed sets a visit of child
// c would start from, given the parent's active states ms and closed AFA
// sets rel. When the child would contribute nothing — no transition matches
// (HyPE's "no-transition" prune) or the subtree index refutes progress
// (OptHyPE's "index-alphabet" prune) — it records the prune, releases the
// sets and reports ok=false. On ok=true ownership of cms/cseeds passes to
// the caller (release with releaseChildStates, or hand them to a shard).
func (r *run) childStates(c *xmltree.Node, ms nfaSet, rel []nfaSet) (cms nfaSet, cseeds []nfaSet, ok bool) {
	// Child mstates: targets of matching transitions, then ε-closure.
	cms = r.getNFASet()
	anyNFA := false
	ms.forEach(func(s int) {
		for _, tr := range r.m.States[s].Trans {
			if !tr.Matches(c.Label) {
				continue
			}
			if r.idx != nil && !r.productive[tr.To] {
				continue
			}
			cms.set(tr.To)
			anyNFA = true
		}
	})
	if anyNFA {
		r.closeNFA(cms)
	}

	// Child AFA seeds: targets of matching TRANS states in rel, plus
	// guard entries of guarded states in cms.
	cseeds = r.getVecN()
	anySeed := false
	for g := range rel {
		if rel[g] == nil {
			continue
		}
		a := r.m.AFAs[g]
		rel[g].forEach(func(t int) {
			st := &a.States[t]
			if st.Kind != mfa.AFATrans {
				return
			}
			if !st.Wild && st.Label != c.Label {
				return
			}
			if cseeds[g] == nil {
				cseeds[g] = r.getAFASet(g)
			}
			cseeds[g].set(st.Kids[0])
			anySeed = true
		})
	}
	cms.forEach(func(s int) {
		g := r.m.States[s].Guard
		if g < 0 {
			return
		}
		if cseeds[g] == nil {
			cseeds[g] = r.getAFASet(g)
		}
		cseeds[g].set(r.m.GuardEntry(s))
		anySeed = true
	})

	if !anyNFA && !anySeed {
		r.prune(c, "no-transition")
		r.releaseChildStates(cms, cseeds)
		return nil, nil, false
	}

	// Index-based pruning (OptHyPE): skip the subtree when no active
	// state can make progress against the child's subtree alphabet.
	if r.idx != nil && !r.useful(c, cms, cseeds) {
		r.prune(c, "index-alphabet")
		r.releaseChildStates(cms, cseeds)
		return nil, nil, false
	}
	return cms, cseeds, true
}

// releaseChildStates returns a childStates result to the run's pools.
func (r *run) releaseChildStates(cms nfaSet, cseeds []nfaSet) {
	r.putNFASet(cms)
	for g := range cseeds {
		if cseeds[g] != nil {
			r.putAFASet(g, cseeds[g])
		}
	}
	r.putVecN(cseeds)
}

// linkChild adds the cans edges for transitions from res's vertices into a
// visited child's vertices; childBase is the global vertex id of the
// child's first state (shard merging passes an offset-adjusted base).
func (r *run) linkChild(res *visitResult, childLabel string, childStates []int32, childBase int32) {
	for i, s := range res.states {
		for _, tr := range r.m.States[s].Trans {
			if !tr.Matches(childLabel) {
				continue
			}
			if j, ok := findState(childStates, int32(tr.To)); ok {
				r.edgeList = append(r.edgeList, edgePair{res.base + int32(i), childBase + int32(j)})
			}
		}
	}
}

// foldChildAFA ORs a visited child's bottom-up AFA truth vectors into the
// parent's transition accumulators (the fstates↑ propagation of lines
// 19–21 of HyPE). childVals may be nil (no AFA active below the child).
func (r *run) foldChildAFA(rel []nfaSet, transAcc [][]bool, childLabel string, childVals [][]bool) {
	for g := range rel {
		if rel[g] == nil || childVals == nil || childVals[g] == nil {
			continue
		}
		a := r.m.AFAs[g]
		acc := transAcc[g]
		vals := childVals[g]
		rel[g].forEach(func(t int) {
			st := &a.States[t]
			if st.Kind != mfa.AFATrans || acc[t] {
				return
			}
			if !st.Wild && st.Label != childLabel {
				return
			}
			if vals[st.Kids[0]] {
				acc[t] = true
			}
		})
	}
}

func (r *run) prune(c *xmltree.Node, reason string) {
	r.stats.SkippedSubtrees++
	skipped := 0
	if r.idx != nil {
		skipped = r.idx.SubtreeSize(c)
		r.stats.SkippedElements += skipped
	}
	if r.trace != nil {
		detail := reason
		if skipped > 0 {
			detail = fmt.Sprintf("%s skipped-elements=%d", reason, skipped)
		}
		r.trace.add(c, TracePrune, detail)
	}
}

func findState(states []int32, s int32) (int, bool) {
	lo, hi := 0, len(states)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case states[mid] < s:
			lo = mid + 1
		case states[mid] > s:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}
