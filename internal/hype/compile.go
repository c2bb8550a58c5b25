package hype

// Compiled evaluation: the interpretation-free fast path for the single-pass
// HyPE algorithm. Two pieces are compiled ahead of a run, both bounded by the
// Theorem 5.1 size accounting surfaced through CompiledStats:
//
//   - Every AFA becomes an instruction program over uint64 bitset words
//     (afaProg): per-state same-node closure masks replace the worklist
//     closure, and the per-node truth computation walks the frozen SCC order
//     as straight-line instructions whose AND/OR tests are word operations.
//
//   - The selecting NFA's subset automaton is built lazily (dfaCache): subset
//     states are interned by their ε-closed bitset, transitions are built on
//     demand per label the way production regexp engines do, and each cached
//     transition carries the precomputed cans link edges the interpreted
//     linkChild loop would rediscover at every node. The cache is bounded:
//     on overflow it is flushed wholesale, and after maxDFAFlushes flushes
//     the run degrades to uncached (transient) subset states — NFA simulation
//     with the same code path — so worst-case memory stays proportional to
//     the cache cap plus the DFS depth.
//
// Labels are interned into a dense alphabet with a single shared "other"
// class for labels the automaton never mentions: all such labels behave
// identically (only wildcard edges and seeds can fire on them), so they
// share one cached transition per subset state. A columnar run translates
// the document's label table into this alphabet once at its start.
//
// The compiled path replays the interpreted reference's decisions exactly —
// same visits, same prunes, same vertices, same edge multiset, same AFA
// activations — so answers AND Stats are identical; internal/crosscheck
// enforces this property over the generated corpus.

import (
	"encoding/binary"
	"math/bits"

	"smoqe/internal/mfa"
)

// defaultDFACacheCap bounds the subset states one engine clone caches; at
// ~100 bytes a state plus per-label transition slots this keeps the cache in
// the hundreds of kilobytes for realistic alphabets.
const defaultDFACacheCap = 2048

// maxDFAFlushes is how many full-cache evictions a clone tolerates before it
// stops caching subset states entirely (transient states, pure NFA
// simulation): a query whose reachable subset automaton keeps overflowing
// the cache would otherwise thrash rebuild work forever.
const maxDFAFlushes = 3

// progEdge is one NFA transition with its label interned; lab -1 is a
// wildcard (matches every element label).
type progEdge struct {
	to  int32
	lab int32
}

// program is the per-engine compiled form of the automaton. It is immutable
// after precompute and shared by all clones; the mutable subset-state cache
// lives per clone (dfaCache).
type program struct {
	m         *mfa.MFA
	labels    map[string]int32 // interned transition alphabet
	numLabels int
	nfaWords  int
	nfaEdges  [][]progEdge
	// prodFilter bakes in the indexed engines' productive-state filter; it
	// applies to subset-state targets only, never to link edges (matching
	// the interpreted childStates/linkChild split).
	prodFilter bool
	productive []bool
	epsAdj     [][]int32
	afas       []afaProg
	afaWords   int // total bitset words across all AFAs
	// emptySet is the all-zero NFA set handed to useful() when a child is
	// visited for AFA seeds alone; it is shared and must never be written.
	emptySet nfaSet
}

// internLabels assigns dense ids to every label the automaton's transitions
// (NFA edges and AFA TRANS steps) can consume, in a deterministic order:
// NFA states ascending, transitions in declaration order, then AFAs and
// their states ascending.
func internLabels(m *mfa.MFA) map[string]int32 {
	labels := make(map[string]int32)
	add := func(lab string) {
		if _, ok := labels[lab]; !ok {
			labels[lab] = int32(len(labels))
		}
	}
	for s := range m.States {
		for _, tr := range m.States[s].Trans {
			if !tr.Wild {
				add(tr.Label)
			}
		}
	}
	for _, a := range m.AFAs {
		for t := range a.States {
			if st := &a.States[t]; st.Kind == mfa.AFATrans && !st.Wild {
				add(st.Label)
			}
		}
	}
	return labels
}

// buildProgram compiles the engine's automaton; called once from precompute,
// after nfaWords/epsAdj/productive/afaClosure exist.
func buildProgram(e *Engine) *program {
	p := &program{
		m:          e.m,
		labels:     internLabels(e.m),
		nfaWords:   e.nfaWords,
		prodFilter: e.idx != nil,
		productive: e.productive,
		epsAdj:     e.epsAdj,
		emptySet:   make(nfaSet, e.nfaWords),
	}
	p.numLabels = len(p.labels)
	p.nfaEdges = make([][]progEdge, e.m.NumStates())
	for s := range e.m.States {
		trans := e.m.States[s].Trans
		edges := make([]progEdge, len(trans))
		for i, tr := range trans {
			if tr.Wild {
				edges[i] = progEdge{to: int32(tr.To), lab: -1}
			} else {
				edges[i] = progEdge{to: int32(tr.To), lab: p.labels[tr.Label]}
			}
		}
		p.nfaEdges[s] = edges
	}
	p.afas = make([]afaProg, len(e.m.AFAs))
	for g, a := range e.m.AFAs {
		p.afas[g] = buildAFAProg(a, &e.afaClosure[g], p.labels, p.numLabels)
		p.afaWords += p.afas[g].words
	}
	return p
}

// labelOf interns a document label at evaluation time; -1 is the shared
// "other" class.
func (p *program) labelOf(label string) int32 {
	if lid, ok := p.labels[label]; ok {
		return lid
	}
	return -1
}

// AFA compilation -----------------------------------------------------------

const (
	opFinalTrue = uint8(iota) // FINAL without predicate: constant true
	opFinalPred               // FINAL with predicate: evaluate at the node
	opTrans                   // TRANS: read the bottom-up accumulator
	opNot                     // NOT: negate the kid bit
	opAnd                     // AND: vals ⊇ mask
	opOr                      // OR: vals ∩ mask ≠ ∅
)

// afaInstr evaluates one AFA state; s is the state, mask the kid bitset of
// operator states, kid the single child of NOT.
type afaInstr struct {
	op   uint8
	s    int32
	kid  int32
	mask nfaSet
	pred mfa.Pred
}

// afaBlock groups consecutive instructions that evaluate in one pass;
// cyclic blocks (star components) iterate to their monotone fixpoint.
type afaBlock struct {
	cyclic bool
	instrs []afaInstr
}

// afaSeed records a TRANS state with its descend target, pre-bucketed by
// label so child-seed computation walks a short list instead of the whole
// relevance set.
type afaSeed struct {
	t, target int32
}

// afaProg is one AFA compiled to bitset instructions.
type afaProg struct {
	words int
	// closure[t] is the transitive same-node closure of {t} (including t),
	// precomputed so relevance sets close by OR-ing masks.
	closure []nfaSet
	blocks  []afaBlock
	// seeds[lid+1] lists the TRANS states that can fire on program label
	// lid; seeds[0] is the "other" class and holds exactly the wildcard
	// TRANS states, which also appear in every labeled bucket.
	seeds [][]afaSeed
}

func buildAFAProg(a *mfa.AFA, meta *afaMeta, labels map[string]int32, numLabels int) afaProg {
	n := a.NumStates()
	p := afaProg{words: meta.words}
	p.closure = make([]nfaSet, n)
	for t := 0; t < n; t++ {
		mask := make(nfaSet, meta.words)
		mask.set(t)
		stack := []int32{int32(t)}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, k := range meta.sameKids[s] {
				if !mask.has(int(k)) {
					mask.set(int(k))
					stack = append(stack, k)
				}
			}
		}
		p.closure[t] = mask
	}

	comps, cyclic := a.SCCOrder()
	for ci, comp := range comps {
		instrs := make([]afaInstr, 0, len(comp))
		for _, s := range comp {
			instrs = append(instrs, buildAFAInstr(a, s, meta.words))
		}
		// Consecutive acyclic components fuse into one straight-line block
		// (they are already in dependency order).
		if cyclic[ci] || len(p.blocks) == 0 || p.blocks[len(p.blocks)-1].cyclic {
			p.blocks = append(p.blocks, afaBlock{cyclic: cyclic[ci], instrs: instrs})
		} else {
			last := &p.blocks[len(p.blocks)-1]
			last.instrs = append(last.instrs, instrs...)
		}
	}

	p.seeds = make([][]afaSeed, numLabels+1)
	for t := 0; t < n; t++ {
		st := &a.States[t]
		if st.Kind != mfa.AFATrans {
			continue
		}
		sd := afaSeed{t: int32(t), target: int32(st.Kids[0])}
		if st.Wild {
			for i := range p.seeds {
				p.seeds[i] = append(p.seeds[i], sd)
			}
		} else {
			p.seeds[labels[st.Label]+1] = append(p.seeds[labels[st.Label]+1], sd)
		}
	}
	return p
}

func buildAFAInstr(a *mfa.AFA, s int, words int) afaInstr {
	st := &a.States[s]
	ins := afaInstr{s: int32(s)}
	switch st.Kind {
	case mfa.AFAFinal:
		if st.Pred.Kind == mfa.PredNone {
			ins.op = opFinalTrue
		} else {
			ins.op = opFinalPred
			ins.pred = st.Pred
		}
	case mfa.AFATrans:
		ins.op = opTrans
	case mfa.AFANot:
		ins.op = opNot
		ins.kid = int32(st.Kids[0])
	case mfa.AFAAnd, mfa.AFAOr:
		if st.Kind == mfa.AFAAnd {
			ins.op = opAnd
		} else {
			ins.op = opOr
		}
		mask := make(nfaSet, words)
		for _, k := range st.Kids {
			mask.set(k)
		}
		ins.mask = mask
	}
	return ins
}

// eval computes one instruction against the partially filled truth bitset.
func (ins *afaInstr) eval(n mfa.NodeView, transVals []bool, vals nfaSet) bool {
	switch ins.op {
	case opFinalTrue:
		return true
	case opFinalPred:
		return ins.pred.Holds(n)
	case opTrans:
		return transVals[ins.s]
	case opNot:
		return !vals.has(int(ins.kid))
	case opAnd:
		for j, w := range ins.mask {
			if vals[j]&w != w {
				return false
			}
		}
		return true
	default: // opOr
		for j, w := range ins.mask {
			if vals[j]&w != 0 {
				return true
			}
		}
		return false
	}
}

// close expands set over same-node edges by OR-ing the precomputed closure
// masks. Bits a mask adds to an already-scanned word need no rescan: masks
// are transitively closed, so their own closures are subsets of the mask.
func (p *afaProg) close(set nfaSet) {
	for wi := range set {
		w := set[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			mask := p.closure[wi<<6+b]
			for j := range set {
				set[j] |= mask[j]
			}
		}
	}
}

// evalMasked is the compiled EvalAtMasked: the truth vector of the member
// states at node n, computed block by block into the zeroed bitset vals.
// Non-member states stay false, exactly like the interpreted evaluator.
func (p *afaProg) evalMasked(n mfa.NodeView, transVals []bool, member, vals nfaSet) {
	for bi := range p.blocks {
		b := &p.blocks[bi]
		if !b.cyclic {
			for ii := range b.instrs {
				ins := &b.instrs[ii]
				if member.has(int(ins.s)) && ins.eval(n, transVals, vals) {
					vals.set(int(ins.s))
				}
			}
			continue
		}
		// Monotone fixpoint over the star component, as in EvalAtMasked.
		for changed := true; changed; {
			changed = false
			for ii := range b.instrs {
				ins := &b.instrs[ii]
				if !vals.has(int(ins.s)) && member.has(int(ins.s)) && ins.eval(n, transVals, vals) {
					vals.set(int(ins.s))
					changed = true
				}
			}
		}
	}
}

// Lazy subset automaton -----------------------------------------------------

// localEdge is a cans edge between a parent subset state's vertex block and
// a child's, by position within each block.
type localEdge struct {
	from, to int32
}

// dfaFinal marks states[idx] as final with its result tag.
type dfaFinal struct {
	idx, tag int32
}

// dfaGuard records that the subset state contains a guarded NFA state whose
// guard AFA g must be seeded at entry.
type dfaGuard struct {
	g, entry int32
}

// dfaState is one interned subset of NFA states (ε-closed), with everything
// a visit derives from the active state set precomputed: the sorted state
// list (the cans vertex block), intra-node ε edges, final states, guard
// seeds and the has-transitions flag.
type dfaState struct {
	set      nfaSet
	states   []int32
	epsLocal []localEdge
	finals   []dfaFinal
	guards   []dfaGuard
	hasTrans bool
	// transient states are built after the cache disabled itself: they are
	// never interned and carry no transition slots, so repeated labels
	// rebuild transitions — plain NFA simulation through the same code.
	transient bool
	// next[lid+1] caches the transition on program label lid; next[0] is
	// the shared "other" class. nil entries are not yet built.
	next []*dfaTrans
}

// dfaTrans is one cached subset transition: the target state (nil when no
// NFA transition fires on the label) plus the precomputed cans link edges —
// the exact multiset the interpreted linkChild loop would emit, unfiltered
// by productivity (a filtered target can re-enter the child block through
// ε-closure from another transition).
type dfaTrans struct {
	next      *dfaState
	linkEdges []localEdge
}

// dfaCache is one clone's lazy subset automaton. Evaluation is
// single-goroutine per clone (Clone resets the cache), so there is no
// locking.
type dfaCache struct {
	prog   *program
	states map[string]*dfaState
	// empty is the canonical empty subset state, used when a child is
	// visited for AFA seeds alone; it lives outside the map so flushes
	// never orphan it.
	empty  *dfaState
	cap    int
	keyBuf []byte

	built    int
	flushes  int
	hits     int64
	misses   int64
	disabled bool
}

func newDFACache(p *program, capacity int) *dfaCache {
	if capacity <= 0 {
		capacity = defaultDFACacheCap
	}
	d := &dfaCache{
		prog:   p,
		states: make(map[string]*dfaState),
		cap:    capacity,
		keyBuf: make([]byte, 8*p.nfaWords),
	}
	d.empty = d.newState(p.emptySet)
	d.empty.next = make([]*dfaTrans, p.numLabels+1)
	return d
}

func (d *dfaCache) key(set nfaSet) []byte {
	for i, w := range set {
		binary.LittleEndian.PutUint64(d.keyBuf[8*i:], w)
	}
	return d.keyBuf
}

// canonical interns the ε-closed state set, evicting on overflow. The set is
// copied on insertion, so callers may pass pooled or scratch sets.
func (d *dfaCache) canonical(set nfaSet) *dfaState {
	if st, ok := d.states[string(d.key(set))]; ok {
		return st
	}
	if !d.disabled && len(d.states) >= d.cap {
		d.flush()
	}
	st := d.newState(append(nfaSet(nil), set...))
	if d.disabled {
		st.transient = true
		return st
	}
	st.next = make([]*dfaTrans, d.prog.numLabels+1)
	d.states[string(d.key(st.set))] = st
	d.built++
	return st
}

// flush evicts every cached subset state wholesale (the caller is about to
// insert into a full cache). States still referenced by the DFS recursion
// stay usable — their transition slots are nilled so they stop caching, and
// they are re-interned fresh on the next canonical lookup.
func (d *dfaCache) flush() {
	for _, st := range d.states {
		st.next = nil
	}
	d.states = make(map[string]*dfaState)
	d.flushes++
	if d.flushes >= maxDFAFlushes {
		d.disabled = true
	}
}

// newState derives the visit-time metadata from the ε-closed set.
func (d *dfaCache) newState(set nfaSet) *dfaState {
	p := d.prog
	st := &dfaState{set: set}
	set.forEach(func(s int) {
		ns := &p.m.States[s]
		if ns.Final {
			st.finals = append(st.finals, dfaFinal{idx: int32(len(st.states)), tag: int32(ns.Tag)})
		}
		if g := ns.Guard; g >= 0 {
			st.guards = append(st.guards, dfaGuard{g: int32(g), entry: int32(p.m.GuardEntry(s))})
		}
		if len(ns.Trans) > 0 {
			st.hasTrans = true
		}
		st.states = append(st.states, int32(s))
	})
	for i, s := range st.states {
		for _, t := range p.epsAdj[s] {
			if j, ok := findState(st.states, t); ok {
				st.epsLocal = append(st.epsLocal, localEdge{from: int32(i), to: int32(j)})
			}
		}
	}
	return st
}

// target is the subset state a child reached through t starts in: t's
// target, or the empty state when only AFA seeds reach the child.
func (d *dfaCache) target(t *dfaTrans) *dfaState {
	if t.next == nil {
		return d.empty
	}
	return t.next
}

// step returns the subset transition of ds on program label lid (-1 for the
// "other" class), building and caching it on demand.
func (d *dfaCache) step(ds *dfaState, lid int32) *dfaTrans {
	if ds.next != nil {
		if t := ds.next[lid+1]; t != nil {
			d.hits++
			return t
		}
	}
	d.misses++
	t := d.buildTrans(ds, lid)
	// Re-check: buildTrans may have flushed the cache (nilling ds.next).
	if ds.next != nil && !d.disabled {
		ds.next[lid+1] = t
	}
	return t
}

func (d *dfaCache) buildTrans(ds *dfaState, lid int32) *dfaTrans {
	p := d.prog
	set := make(nfaSet, p.nfaWords)
	any := false
	for _, s := range ds.states {
		for _, e := range p.nfaEdges[s] {
			if e.lab != -1 && e.lab != lid {
				continue
			}
			if p.prodFilter && !p.productive[e.to] {
				continue
			}
			set.set(int(e.to))
			any = true
		}
	}
	t := &dfaTrans{}
	if !any {
		return t
	}
	closeNFAInto(set, p.epsAdj)
	t.next = d.canonical(set)
	for i, s := range ds.states {
		for _, e := range p.nfaEdges[s] {
			if e.lab != -1 && e.lab != lid {
				continue
			}
			if j, ok := findState(t.next.states, e.to); ok {
				t.linkEdges = append(t.linkEdges, localEdge{from: int32(i), to: int32(j)})
			}
		}
	}
	return t
}

// closeNFAInto is the build-time ε-closure (no run pools involved).
func closeNFAInto(set nfaSet, epsAdj [][]int32) {
	var stack []int32
	set.forEach(func(s int) { stack = append(stack, int32(s)) })
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range epsAdj[s] {
			if !set.has(int(t)) {
				set.set(int(t))
				stack = append(stack, t)
			}
		}
	}
}

// dfaSnapshot captures the cache counters so run() can report per-run deltas.
type dfaSnapshot struct {
	built, flushes int
	hits, misses   int64
}

func (d *dfaCache) snap() dfaSnapshot {
	return dfaSnapshot{built: d.built, flushes: d.flushes, hits: d.hits, misses: d.misses}
}

// delta reports one run's compiled-layer statistics relative to a snapshot.
func (d *dfaCache) delta(pre dfaSnapshot) CompiledStats {
	p := d.prog
	return CompiledStats{
		Enabled:     true,
		Alphabet:    p.numLabels,
		NFAWords:    p.nfaWords,
		AFAWords:    p.afaWords,
		DFACacheCap: d.cap,
		DFAStates:   d.built - pre.built,
		DFAHits:     d.hits - pre.hits,
		DFAMisses:   d.misses - pre.misses,
		DFAFlushes:  d.flushes - pre.flushes,
		DFAFallback: d.disabled,
	}
}

// CompiledStats reports what the compiled evaluation layer did (and costs):
// the static sizing ties back to Theorem 5.1 — the subset automaton over an
// MFA of size |M| has at most 2^|NFA states| states, which is why the cache
// is bounded by DFACacheCap and evicts instead of growing — and the per-run
// counters show how much of it a concrete document actually materialized.
// It is deliberately separate from Stats: Stats describes the algorithm's
// decisions (identical compiled or interpreted), CompiledStats describes
// the machinery.
type CompiledStats struct {
	// Enabled reports whether the run used the compiled layer at all.
	Enabled bool `json:"enabled"`
	// Alphabet is the number of distinct labels the automaton can consume;
	// all other labels share one implicit "other" transition class.
	Alphabet int `json:"alphabet"`
	// NFAWords and AFAWords are the uint64 bitset words encoding the
	// selecting NFA's state set and (summed) the AFAs' state sets.
	NFAWords int `json:"nfa_words"`
	AFAWords int `json:"afa_words,omitempty"`
	// DFACacheCap bounds how many subset (DFA) states one engine clone
	// caches before evicting.
	DFACacheCap int `json:"dfa_cache_cap"`
	// DFAStates counts subset states built during this run; DFAHits and
	// DFAMisses count cached-transition lookups.
	DFAStates int   `json:"dfa_states"`
	DFAHits   int64 `json:"dfa_hits"`
	DFAMisses int64 `json:"dfa_misses"`
	// DFAFlushes counts whole-cache evictions; after maxDFAFlushes of them
	// the clone stops caching (DFAFallback) and runs uncached NFA
	// simulation through the same code path.
	DFAFlushes  int  `json:"dfa_flushes,omitempty"`
	DFAFallback bool `json:"dfa_fallback,omitempty"`
}

// CompiledPlan reports the static compiled-layer sizing for an automaton —
// the part of CompiledStats known before any document is seen. The EXPLAIN
// layer prints it next to the Theorem 5.1 automaton sizes.
func CompiledPlan(m *mfa.MFA) CompiledStats {
	nfaWords := (m.NumStates() + 63) / 64
	if nfaWords == 0 {
		nfaWords = 1
	}
	afaWords := 0
	for _, a := range m.AFAs {
		w := (a.NumStates() + 63) / 64
		if w == 0 {
			w = 1
		}
		afaWords += w
	}
	return CompiledStats{
		Enabled:     true,
		Alphabet:    len(internLabels(m)),
		NFAWords:    nfaWords,
		AFAWords:    afaWords,
		DFACacheCap: defaultDFACacheCap,
	}
}

// Engine knobs --------------------------------------------------------------

// SetCompiled(false) makes this engine's sequential pointer evaluations
// (Eval, EvalCtx, EvalTraced, EvalTagged and their variants) run the
// interpreted reference pass instead of the compiled one (the default). The
// two return identical answers, Stats and traces; the reference exists for
// the equivalence tests to compare against. Columnar and shard-parallel
// runs are always compiled. Must not be called concurrently with an
// evaluation.
func (e *Engine) SetCompiled(on bool) { e.compiledOff = !on }

// SetCompiledCacheCap overrides the subset-state cache bound (0 restores the
// default). It resets the clone's cache; tests use tiny caps to exercise the
// eviction and fallback paths.
func (e *Engine) SetCompiledCacheCap(n int) {
	e.dfaCap = n
	e.dfa = nil
}

// CompiledStats returns the compiled-layer statistics of the most recent
// run on this engine (clone); Enabled is false when that run was
// interpreted. A parallel run reports the planner's share: its shard
// workers cache subset states on clones of their own.
func (e *Engine) CompiledStats() CompiledStats { return e.lastCompiled }

// ensureDFA returns the clone's lazy subset automaton, creating it on first
// use so clones that never evaluate pay nothing.
func (e *Engine) ensureDFA() *dfaCache {
	if e.dfa == nil {
		e.dfa = newDFACache(e.prog, e.dfaCap)
	}
	return e.dfa
}
