package hype

// The compiled DFS, the pass every served evaluation runs: the per-node NFA
// work — closure, final/guard discovery, ε edges, transition matching and
// cans link edges — comes precomputed from the clone's subset-state cache
// (compile.go), and AFA evaluation runs the bitset instruction programs.
//
// A node visit has two halves around its children: enterC (poll, AFA
// closure, cans vertices, accumulators) and exitC (AFA evaluation, guard
// kills). The pointer pass visitC, the columnar pass visitColC (coleval.go)
// and the shard-parallel planner and merge (parallel.go) are all built from
// these halves plus childC (step + seeds + prune) and foldChildC (link edges
// + AFA fold). Every decision (visit, prune, vertex, edge, AFA activation)
// and every trace event replays the interpreted reference visit() exactly,
// so Stats, answers and traces are byte-for-byte those of the reference.

import (
	"fmt"

	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
)

// frame is a node between the two halves of its visit.
type frame struct {
	ds       *dfaState
	rel      []nfaSet // closed AFA relevance sets (nil per inactive AFA)
	transAcc [][]bool // bottom-up accumulators; nil when no AFA is active
	res      visitResult
}

// descend reports whether the node's children need visiting at all: some
// active NFA state has a transition, or some AFA is active.
func (f *frame) descend() bool { return f.ds.hasTrans || f.transAcc != nil }

// enterC is the entry half of a visit of node n. The caller sets up f with
// only the node's subset state and its not-yet-closed AFA seed sets (as
// f.rel, closed here in place) — stores into its own stack frame, which
// need no GC write barrier — and enterC allocates the node's cans vertices
// into f.res and the accumulators into f.transAcc. Candidates record the
// pointer node n, or on the columnar path (n nil) the preorder id id. It
// returns false when the run is cancelled: f.res is then the empty result
// the parent folds, and the caller must not descend or run exitC.
func (r *run) enterC(f *frame, n *xmltree.Node, id int32) bool {
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
		f.res = visitResult{base: int32(r.numVerts)}
		return false
	}
	r.stats.VisitedElements++

	ds, fseeds := f.ds, f.rel
	nAFA := 0
	for g := range fseeds {
		if fseeds[g] != nil {
			r.prog.afas[g].close(fseeds[g])
			nAFA++
		}
	}
	if r.trace != nil {
		r.trace.add(n, TraceVisit, fmt.Sprintf("nfa-states=%d active-afas=%d", len(ds.states), nAFA))
	}

	// The vertex block is ds.states, candidates come from ds.finals, ε
	// edges from ds.epsLocal.
	base := int32(r.numVerts)
	f.res.base = base
	f.res.states = append(r.getStates(), ds.states...)
	for _, fin := range ds.finals {
		r.cands = append(r.cands, cand{vid: base + fin.idx, tag: fin.tag, id: id, node: n})
	}
	for range ds.states {
		r.dead = append(r.dead, false)
	}
	r.numVerts += len(ds.states)
	for _, ep := range ds.epsLocal {
		r.edgeList = append(r.edgeList, edgePair{base + ep.from, base + ep.to})
	}

	if nAFA > 0 {
		f.transAcc = r.getVecB()
		for g := range fseeds {
			if fseeds[g] != nil {
				f.transAcc[g] = r.getBoolsCleared(g)
			}
		}
	}
	return true
}

// exitC is the exit half of a visit, run once every child has been folded
// into f: the bottom-up AFA evaluation (fstates↑) with the predicates seeing
// the node through view, then the guard kills. n is the pointer node the
// trace records (nil on the columnar path). f.res is then the node's result
// for the parent to fold.
func (r *run) exitC(view mfa.NodeView, n *xmltree.Node, f *frame) {
	res := &f.res
	if f.transAcc != nil {
		res.afaVals = r.getVecB()
		for g := range f.rel {
			if f.rel[g] == nil {
				continue
			}
			r.stats.AFAEvaluations++
			if r.trace != nil {
				r.trace.add(n, TraceAFAEval, fmt.Sprintf("X%d states=%d", g, f.rel[g].count()))
			}
			res.afaVals[g] = r.evalAFAC(g, view, f.transAcc[g], f.rel[g])
			r.putBools(g, f.transAcc[g])
		}
		r.putVecB(f.transAcc)
	}
	r.killGuardFailed(n, res)
}

// visitC is the compiled pointer pass: visit() with the node's subset state
// ds standing in for the ε-closed NFA set.
func (r *run) visitC(n *xmltree.Node, ds *dfaState, fseeds []nfaSet) visitResult {
	f := frame{ds: ds, rel: fseeds}
	if !r.enterC(&f, n, 0) {
		return f.res
	}
	if f.descend() {
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				r.visitChildC(c, &f)
			}
		}
	}
	r.exitC(n, n, &f)
	return f.res
}

// visitChildC visits element child c of the node in f and folds it back.
func (r *run) visitChildC(c *xmltree.Node, f *frame) {
	lid := r.prog.labelOf(c.Label)
	tr, cseeds, ok := r.childC(c, lid, f.ds, f.rel)
	if !ok {
		return
	}
	cres := r.visitC(c, r.dfa.target(tr), cseeds)
	r.foldChildC(f, lid, tr, cres.base, cres.afaVals)
	r.recycle(cres)
	r.releaseChildStates(nil, cseeds)
}

// childC decides whether a child with program label lid, below a node in
// subset state ds with closed AFA sets rel, needs visiting: it steps the
// subset automaton and collects the child's AFA seeds. When the child would
// contribute nothing — no transition and no seed (HyPE's "no-transition"
// prune) or the subtree index refutes progress (OptHyPE's "index-alphabet"
// prune) — it records the prune and reports ok=false. c is the pointer
// child; the columnar pass, which carries no index, passes nil. On ok=true
// the caller owns cseeds (release with releaseChildStates, or hand them to
// a shard).
func (r *run) childC(c *xmltree.Node, lid int32, ds *dfaState, rel []nfaSet) (tr *dfaTrans, cseeds []nfaSet, ok bool) {
	tr = r.dfa.step(ds, lid)
	cseeds, anySeed := r.childSeedsC(lid, rel, tr.next)
	if tr.next == nil && !anySeed {
		r.prune(c, "no-transition")
		r.releaseChildStates(nil, cseeds)
		return nil, nil, false
	}
	if r.idx != nil {
		cms := r.prog.emptySet
		if tr.next != nil {
			cms = tr.next.set
		}
		if !r.useful(c, cms, cseeds) {
			r.prune(c, "index-alphabet")
			r.releaseChildStates(nil, cseeds)
			return nil, nil, false
		}
	}
	return tr, cseeds, true
}

// foldChildC folds a visited child into its parent's frame: the cans link
// edges of the subset transition tr from the parent's vertex block into the
// child's (whose first vertex has the global id childBase), and the child's
// AFA truth vectors childVals (nil when no AFA was active below the child)
// OR-ed into the parent's transition accumulators — the fstates↑
// propagation, walking the per-label seed buckets instead of the whole
// relevance set.
func (r *run) foldChildC(f *frame, lid int32, tr *dfaTrans, childBase int32, childVals [][]bool) {
	for _, le := range tr.linkEdges {
		r.edgeList = append(r.edgeList, edgePair{f.res.base + le.from, childBase + le.to})
	}
	if childVals == nil {
		return
	}
	for g, rel := range f.rel {
		if rel == nil || childVals[g] == nil {
			continue
		}
		acc := f.transAcc[g]
		vals := childVals[g]
		for _, sd := range r.prog.afas[g].seeds[lid+1] {
			if acc[sd.t] || !rel.has(int(sd.t)) {
				continue
			}
			if vals[sd.target] {
				acc[sd.t] = true
			}
		}
	}
}

// recycle returns a folded child result's buffers to the run's pools.
func (r *run) recycle(cres visitResult) {
	if cres.afaVals != nil {
		for g := range cres.afaVals {
			if cres.afaVals[g] != nil {
				r.putBools(g, cres.afaVals[g])
			}
		}
		r.putVecB(cres.afaVals)
	}
	r.putStates(cres.states)
}

// childSeedsC computes the child's AFA seed sets: descend targets of the
// relevant TRANS states that fire on the child's label (the per-label seed
// buckets), plus the guard entries of the child's subset state.
func (r *run) childSeedsC(lid int32, rel []nfaSet, next *dfaState) (cseeds []nfaSet, anySeed bool) {
	cseeds = r.getVecN()
	for g := range rel {
		if rel[g] == nil {
			continue
		}
		for _, sd := range r.prog.afas[g].seeds[lid+1] {
			if !rel[g].has(int(sd.t)) {
				continue
			}
			if cseeds[g] == nil {
				cseeds[g] = r.getAFASet(g)
			}
			cseeds[g].set(int(sd.target))
			anySeed = true
		}
	}
	if next != nil {
		for _, gs := range next.guards {
			if cseeds[gs.g] == nil {
				cseeds[gs.g] = r.getAFASet(int(gs.g))
			}
			cseeds[gs.g].set(int(gs.entry))
			anySeed = true
		}
	}
	return cseeds, anySeed
}

// evalAFAC runs AFA g's compiled program at node n and converts the truth
// bitset into the []bool vector the shared fold/guard code consumes.
func (r *run) evalAFAC(g int, n mfa.NodeView, transVals []bool, member nfaSet) []bool {
	vals := r.getAFASet(g)
	r.prog.afas[g].evalMasked(n, transVals, member, vals)
	out := r.getBools(g)
	for i := range out {
		out[i] = vals.has(i)
	}
	r.putAFASet(g, vals)
	return out
}

// rootStateC interns the run's initial subset state ({start} ε-closed) and
// collects its guard seeds — the compiled counterpart of the closeNFA +
// guardSeeds run preamble.
func (r *run) rootStateC() (*dfaState, []nfaSet) {
	d := r.Engine.ensureDFA()
	ms := r.getNFASet()
	ms.set(r.m.Start)
	r.closeNFA(ms)
	root := d.canonical(ms)
	r.putNFASet(ms)
	seeds := r.getVecN()
	for _, gs := range root.guards {
		if seeds[gs.g] == nil {
			seeds[gs.g] = r.getAFASet(int(gs.g))
		}
		seeds[gs.g].set(int(gs.entry))
	}
	return root, seeds
}
