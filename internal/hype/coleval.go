package hype

// Columnar evaluation: the same single-pass HyPE algorithm (visit + cans
// traversal) running over a colstore.Document instead of a pointer tree.
// Child iteration is interval hopping (c := n+1; c <= End(n); c = End(c)+1)
// and every label lookup is an index into the per-run translation of the
// document's label ids to program label ids, so the DFS is
// memory-bandwidth-bound. The columnar pass is built from the same compiled
// visit halves as the pointer pass (compiled.go) and produces identical
// statistics and answers (crosschecked in internal/crosscheck).

import (
	"context"
	"sort"

	"smoqe/internal/colstore"
)

// colDoc is one columnar run's view of its document: the columns, the
// translation of the document's label ids to program label ids (-1 for
// labels the automaton never mentions — the shared "other" class) and the
// run's one reusable cursor, repositioned before AFA predicates evaluate.
type colDoc struct {
	cd      *colstore.Document
	progLab []int32
	cur     *colstore.Cursor
}

// EvalColumnar computes root[[M]] over the columnar document and returns
// the preorder ids of the answer nodes in document order.
func (e *Engine) EvalColumnar(cd *colstore.Document) []int {
	ids, _, _ := e.EvalColumnarCtx(nil, cd)
	return ids
}

// EvalColumnarWithStats is EvalColumnar returning this run's statistics.
// They are exactly the statistics of the sequential pointer path (plain
// HyPE, no index) on the same document and automaton.
func (e *Engine) EvalColumnarWithStats(cd *colstore.Document) ([]int, Stats) {
	ids, st, _ := e.EvalColumnarCtx(nil, cd)
	return ids, st
}

// EvalColumnarCtx is EvalColumnarWithStats honoring a context and the
// engine's resource limits (see EvalCtx). The columnar pass always runs
// compiled; SetCompiled only concerns the sequential pointer pass.
func (e *Engine) EvalColumnarCtx(cctx context.Context, cd *colstore.Document) ([]int, Stats, error) {
	hits, st, err := e.runCol(cctx, cd)
	if err != nil {
		return nil, st, err
	}
	return candIDs(hits), st, nil
}

// runCol is run() for the columnar path, evaluating at the root (node 0).
func (e *Engine) runCol(cctx context.Context, cd *colstore.Document) ([]cand, Stats, error) {
	if e.idx != nil {
		panic("hype: columnar evaluation requires a plain (non-indexed) engine")
	}
	if cctx != nil {
		if err := cctx.Err(); err != nil {
			e.stats = Stats{}
			return nil, Stats{}, err
		}
	}
	r := e.newRun(cctx, nil)
	d := e.ensureDFA()
	pre := d.snap()
	col := &colDoc{cd: cd, progLab: make([]int32, cd.NumLabels()), cur: cd.At(0)}
	for i, lab := range cd.Labels() {
		col.progLab[i] = e.prog.labelOf(lab)
	}
	root, seeds := r.rootStateC()
	res := r.visitColC(col, 0, root, seeds)
	e.lastCompiled = d.delta(pre)
	return r.finish(res)
}

// candIDs extracts the columnar hits' preorder ids, sorted and deduplicated
// (the columnar counterpart of candNodes).
func candIDs(hits []cand) []int {
	ids := make([]int, 0, len(hits))
	for _, c := range hits {
		ids = append(ids, int(c.id))
	}
	sort.Ints(ids)
	out := ids[:0]
	prev := -1
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
		}
		prev = id
	}
	return out
}

// visitColC is visitC over the columns: node n in subset state ds with the
// AFA seed sets fseeds.
func (r *run) visitColC(d *colDoc, n int32, ds *dfaState, fseeds []nfaSet) visitResult {
	f := frame{ds: ds, rel: fseeds}
	if !r.enterC(&f, nil, n) {
		return f.res
	}
	if f.descend() {
		cd := d.cd
		for c := n + 1; c <= cd.End(n); c = cd.End(c) + 1 {
			if cd.IsElement(c) {
				r.visitChildColC(d, c, &f)
			}
		}
	}
	d.cur.Seek(n)
	r.exitC(d.cur, nil, &f)
	return f.res
}

// visitChildColC is visitChildC over the columns.
func (r *run) visitChildColC(d *colDoc, c int32, f *frame) {
	lid := d.progLab[d.cd.LabelID(c)]
	tr, cseeds, ok := r.childC(nil, lid, f.ds, f.rel)
	if !ok {
		return
	}
	cres := r.visitColC(d, c, r.dfa.target(tr), cseeds)
	r.foldChildC(f, lid, tr, cres.base, cres.afaVals)
	r.recycle(cres)
	r.releaseChildStates(nil, cseeds)
}
