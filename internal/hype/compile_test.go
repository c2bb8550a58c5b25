package hype_test

import (
	"reflect"
	"sort"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// TestCompiledMatchesInterpreted is the compiled-layer identity property on
// the fixed query set: for every engine variant and for the columnar path,
// the compiled evaluation must return the same answers AND the same Stats as
// the interpreted pointer reference — the compiled path replays decisions,
// it does not make new ones.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, d := range []struct {
		name string
		doc  *xmltree.Document
	}{
		{"sample", hospital.SampleDocument()},
		{"generated", datagen.Generate(datagen.DefaultConfig(150))},
	} {
		cd := colstore.FromTree(d.doc)
		pre := preorderIndex(d.doc)
		for _, src := range sourceQueries {
			q := xpath.MustParse(src)
			m := mfa.MustCompile(q)
			compiled := engines(t, m, d.doc)
			interpreted := engines(t, m, d.doc)
			for name, eng := range compiled {
				interp := interpreted[name]
				interp.SetCompiled(false)
				wantNodes, wantStats := interp.EvalWithStats(d.doc.Root)
				gotNodes, gotStats := eng.EvalWithStats(d.doc.Root)
				if !same(gotNodes, wantNodes) {
					t.Errorf("%s/%s %q: compiled answers differ: %v vs %v",
						d.name, name, src, ids(gotNodes), ids(wantNodes))
				}
				if gotStats != wantStats {
					t.Errorf("%s/%s %q: compiled Stats = %+v, interpreted %+v",
						d.name, name, src, gotStats, wantStats)
				}
				if cs := eng.CompiledStats(); !cs.Enabled {
					t.Errorf("%s/%s %q: compiled run reported Enabled=false", d.name, name, src)
				}
				if cs := interp.CompiledStats(); cs.Enabled {
					t.Errorf("%s/%s %q: interpreted run reported Enabled=true", d.name, name, src)
				}
			}

			// The columnar pass has no interpreted twin: it answers to the
			// interpreted pointer reference.
			interp := hype.New(m)
			interp.SetCompiled(false)
			wantNodes, wantStats := interp.EvalWithStats(d.doc.Root)
			wantIDs := make([]int, len(wantNodes))
			for i, n := range wantNodes {
				wantIDs[i] = pre[n]
			}
			sort.Ints(wantIDs)
			gotIDs, gotStats := hype.New(m).EvalColumnarWithStats(cd)
			if len(gotIDs) != len(wantIDs) || (len(gotIDs) > 0 && !reflect.DeepEqual(gotIDs, wantIDs)) {
				t.Errorf("%s/columnar %q: compiled ids %v, interpreted pointer %v", d.name, src, gotIDs, wantIDs)
			}
			if gotStats != wantStats {
				t.Errorf("%s/columnar %q: compiled Stats = %+v, interpreted pointer %+v", d.name, src, gotStats, wantStats)
			}
		}
	}
}

// TestCompiledTraceIdentical: a traced run stays on the compiled path and
// must replay the interpreted decision log event for event, with the
// compiled-layer statistics attached to the trace.
func TestCompiledTraceIdentical(t *testing.T) {
	doc := hospital.SampleDocument()
	for _, src := range sourceQueries {
		m := mfa.MustCompile(xpath.MustParse(src))
		comp := hype.New(m)
		interp := hype.New(m)
		interp.SetCompiled(false)

		gotNodes, gotStats, gotTr := comp.EvalTraced(doc.Root, 4096)
		wantNodes, wantStats, wantTr := interp.EvalTraced(doc.Root, 4096)
		if !same(gotNodes, wantNodes) || gotStats != wantStats {
			t.Fatalf("%q: traced compiled run diverges", src)
		}
		if !reflect.DeepEqual(gotTr.Events, wantTr.Events) || gotTr.Dropped != wantTr.Dropped {
			t.Errorf("%q: compiled trace events differ from interpreted", src)
		}
		if gotTr.Compiled == nil || !gotTr.Compiled.Enabled {
			t.Errorf("%q: compiled trace missing CompiledStats", src)
		}
		if wantTr.Compiled != nil {
			t.Errorf("%q: interpreted trace carries CompiledStats", src)
		}
	}
}

// TestCompiledCacheEvictionAndFallback forces the subset-state cache through
// its whole lifecycle with a tiny cap: flushes must happen, the cache must
// eventually disable itself (NFA-simulation fallback), and none of it may
// change answers or Stats.
func TestCompiledCacheEvictionAndFallback(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(300))
	sawFallback := false
	for _, src := range []string{hospital.RXC, "//patient", "department/patient[visit and parent]"} {
		m := mfa.MustCompile(xpath.MustParse(src))
		interp := hype.New(m)
		interp.SetCompiled(false)
		wantNodes, wantStats := interp.EvalWithStats(doc.Root)

		tiny := hype.New(m)
		tiny.SetCompiledCacheCap(1)
		gotNodes, gotStats := tiny.EvalWithStats(doc.Root)
		if !same(gotNodes, wantNodes) || gotStats != wantStats {
			t.Fatalf("%q: answers/Stats diverge under cache cap 1", src)
		}
		cs := tiny.CompiledStats()
		if !cs.Enabled {
			t.Fatalf("%q: compiled layer not used", src)
		}
		if cs.DFACacheCap != 1 {
			t.Errorf("%q: DFACacheCap = %d, want 1", src, cs.DFACacheCap)
		}
		if cs.DFAFlushes == 0 {
			t.Errorf("%q: expected cache flushes under cap 1, got none (states=%d)", src, cs.DFAStates)
		}
		sawFallback = sawFallback || cs.DFAFallback

		// A second run on the same (now fallback) clone must still agree.
		gotNodes, gotStats = tiny.EvalWithStats(doc.Root)
		if !same(gotNodes, wantNodes) || gotStats != wantStats {
			t.Fatalf("%q: post-fallback rerun diverges", src)
		}
	}
	if !sawFallback {
		t.Error("no query reached the NFA-simulation fallback under cache cap 1")
	}
}

// TestCompiledCacheWarmsAcrossRuns: the subset automaton is per clone, so a
// second run on the same clone reuses cached states (near-zero misses) and
// a fresh clone starts cold.
func TestCompiledCacheWarmsAcrossRuns(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	m := mfa.MustCompile(xpath.MustParse(hospital.XPA))
	e := hype.New(m)
	e.Eval(doc.Root)
	first := e.CompiledStats()
	if first.DFAStates == 0 {
		t.Fatalf("first run built no subset states: %+v", first)
	}
	e.Eval(doc.Root)
	second := e.CompiledStats()
	if second.DFAStates != 0 || second.DFAMisses != 0 {
		t.Errorf("second run should be fully cached, got states=%d misses=%d",
			second.DFAStates, second.DFAMisses)
	}
	clone := e.Clone()
	clone.Eval(doc.Root)
	cold := clone.CompiledStats()
	if cold.DFAStates != first.DFAStates {
		t.Errorf("fresh clone built %d states, original first run %d", cold.DFAStates, first.DFAStates)
	}
}

// TestCompiledPlanSizing: the static plan numbers must reconcile with the
// automaton (Theorem 5.1 accounting): one word per 64 NFA states, and an
// alphabet no larger than the automaton's edge count.
func TestCompiledPlanSizing(t *testing.T) {
	m := mfa.MustCompile(xpath.MustParse(hospital.RXC))
	cp := hype.CompiledPlan(m)
	wantWords := (m.NumStates() + 63) / 64
	if wantWords == 0 {
		wantWords = 1
	}
	if cp.NFAWords != wantWords {
		t.Errorf("NFAWords = %d, want %d for %d NFA states", cp.NFAWords, wantWords, m.NumStates())
	}
	if cp.Alphabet <= 0 {
		t.Errorf("Alphabet = %d, want > 0", cp.Alphabet)
	}
	if cp.DFACacheCap <= 0 {
		t.Errorf("DFACacheCap = %d, want > 0", cp.DFACacheCap)
	}
	e := hype.New(m)
	doc := hospital.SampleDocument()
	e.Eval(doc.Root)
	run := e.CompiledStats()
	if run.Alphabet != cp.Alphabet || run.NFAWords != cp.NFAWords || run.AFAWords != cp.AFAWords {
		t.Errorf("run-time sizing %+v disagrees with CompiledPlan %+v", run, cp)
	}
}
