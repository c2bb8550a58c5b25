package crosscheck_test

// The compiled-layer equivalence properties: the lazy subset-automaton /
// bitset-AFA evaluation is a pure replay of the interpreted decision
// procedure, so on ANY automaton — compiled directly, rewritten over a
// hand-written view, or rewritten over a secview-derived policy view — it
// must return byte-identical answers AND identical Stats, on the pointer
// path and the columnar path alike. The interpreted pointer pass is the one
// reference both are held to.

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/rewrite"
	"smoqe/internal/secview"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// checkCompiled runs m compiled and interpreted on doc, and compiled on its
// columnar form cd (whose preorder ids pre maps the pointer nodes to), and
// fails on any divergence from the interpreted pointer reference in answers
// or Stats.
func checkCompiled(t *testing.T, tag string, m *mfa.MFA, doc *xmltree.Document, cd *colstore.Document, pre map[*xmltree.Node]int) {
	t.Helper()
	interp := hype.New(m)
	interp.SetCompiled(false)
	wantNodes, wantStats := interp.EvalWithStats(doc.Root)
	comp := hype.New(m)
	gotNodes, gotStats := comp.EvalWithStats(doc.Root)
	if len(gotNodes) != len(wantNodes) {
		t.Fatalf("%s: compiled %d nodes, interpreted %d", tag, len(gotNodes), len(wantNodes))
	}
	for j := range gotNodes {
		if gotNodes[j] != wantNodes[j] {
			t.Fatalf("%s: node %d differs: %s vs %s", tag, j, gotNodes[j].Path(), wantNodes[j].Path())
		}
	}
	if gotStats != wantStats {
		t.Fatalf("%s: compiled Stats %+v, interpreted %+v", tag, gotStats, wantStats)
	}
	checkColumnarStats(t, tag, m, cd, pre, wantNodes, wantStats)
}

// checkColumnarStats evaluates m on the columnar form and demands the
// preorder ids of the reference answer want and the reference Stats.
func checkColumnarStats(t *testing.T, tag string, m *mfa.MFA, cd *colstore.Document, pre map[*xmltree.Node]int, want []*xmltree.Node, wantStats hype.Stats) {
	t.Helper()
	gotIDs, gotStats := hype.New(m).EvalColumnarWithStats(cd)
	wantIDs := make([]int, len(want))
	for j, n := range want {
		wantIDs[j] = pre[n]
	}
	sort.Ints(wantIDs)
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("%s: columnar %d ids, interpreted pointer %d", tag, len(gotIDs), len(wantIDs))
	}
	for j := range gotIDs {
		if gotIDs[j] != wantIDs[j] {
			t.Fatalf("%s: columnar id %d differs: %d vs %d", tag, j, gotIDs[j], wantIDs[j])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("%s: columnar Stats %+v, interpreted pointer %+v", tag, gotStats, wantStats)
	}
}

// TestCompiledAgreesOnGeneratedQueries: direct compilation over generated
// source queries.
func TestCompiledAgreesOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 60, 47)
	cd := colstore.FromTree(doc)
	pre := preorderOf(doc)
	g := qgen.New(hospital.DocDTD(), 4242, corpusTexts)
	for i := 0; i < 200; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("query %d %q", i, q), m, doc, cd, pre)
	}
}

// TestCompiledAgreesOnViewRewritings: rewritten automata over σ0 — larger
// NFAs with data-test AFAs, the Theorem 5.1 shape the subset cache must
// handle.
func TestCompiledAgreesOnViewRewritings(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	v := hospital.Sigma0()
	doc := corpus(t, 50, 53)
	cd := colstore.FromTree(doc)
	pre := preorderOf(doc)
	g := qgen.New(hospital.ViewDTD(), 777, []string{"heart disease", "flu", "lung disease"})
	for i := 0; i < 150; i++ {
		q := g.Query()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("view query %d %q: rewrite: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("view query %d %q", i, q), m, doc, cd, pre)
	}
}

// TestCompiledAgreesOnSecviewRewritings: automata rewritten over a
// policy-derived (secview) security view — recursive view DTD, promoted
// chains, the automata with the densest ε-structure in the repo.
func TestCompiledAgreesOnSecviewRewritings(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	p := secview.Policy{}
	for _, ty := range []string{
		"department", "name", "pname", "address", "street", "city", "zip",
		"treatment", "test", "medication", "type",
		"doctor", "dname", "specialty", "date", "sibling",
	} {
		p[ty] = secview.Rule{Action: secview.Deny}
	}
	v, err := secview.Derive(hospital.DocDTD(), p)
	if err != nil {
		t.Fatal(err)
	}
	doc := corpus(t, 40, 59)
	cd := colstore.FromTree(doc)
	pre := preorderOf(doc)
	g := qgen.New(v.Target, 313, corpusTexts)
	for i := 0; i < 120; i++ {
		q := g.Query()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("secview query %d %q: rewrite: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("secview query %d %q", i, q), m, doc, cd, pre)
	}
}

// TestCompiledAgreesUnderTinyCache replays a slice of the generated-query
// property with a cache cap of 1, so eviction and the NFA-simulation
// fallback are exercised against generated (not hand-picked) automata.
func TestCompiledAgreesUnderTinyCache(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 40, 61)
	g := qgen.New(hospital.DocDTD(), 6006, corpusTexts)
	for i := 0; i < 60; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, q, err)
		}
		interp := hype.New(m)
		interp.SetCompiled(false)
		wantNodes, wantStats := interp.EvalWithStats(doc.Root)
		tiny := hype.New(m)
		tiny.SetCompiledCacheCap(1)
		gotNodes, gotStats := tiny.EvalWithStats(doc.Root)
		if len(gotNodes) != len(wantNodes) || gotStats != wantStats {
			t.Fatalf("query %d %q: cap-1 compiled diverges (%d/%d nodes, %+v vs %+v)",
				i, q, len(gotNodes), len(wantNodes), gotStats, wantStats)
		}
		for j := range gotNodes {
			if gotNodes[j] != wantNodes[j] {
				t.Fatalf("query %d %q: cap-1 node %d differs", i, q, j)
			}
		}
	}
}

// FuzzCompiledAgreesWithInterpreted is the fuzz form: for any document and
// query the parsers accept, the compiled pointer, columnar and
// shard-parallel evaluations must agree with the interpreted pointer
// reference on answers and Stats — and none may panic.
func FuzzCompiledAgreesWithInterpreted(f *testing.F) {
	seeds := []struct{ xml, query string }{
		{"<r><a><b>x</b></a><a/></r>", "a/b"},
		{"<r><a><a><a/></a></a></r>", "a*/a"},
		{"<r><a>x</a><b>y</b></r>", "*[text()='x']"},
		{"<r><a><b/></a><a><c/></a></r>", "a[not(b)]"},
		{"<r><a/><a/><a/></r>", "a[position()=2]"},
		{"<r><a><b><a/></b></a></r>", "//a"},
		{"<r><a/></r>", "(a|b)*/."},
		{"<r><p><q>v</q></p></r>", "p[q/text()='v' and not(z)]"},
	}
	for _, s := range seeds {
		f.Add(s.xml, s.query)
	}
	lim := xmltree.ParseLimits{MaxDepth: 64, MaxNodes: 4096, MaxBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, xmlSrc, querySrc string) {
		if len(querySrc) > 256 {
			return
		}
		doc, err := xmltree.ParseStringWithLimits(xmlSrc, lim)
		if err != nil {
			return
		}
		q, err := xpath.Parse(querySrc)
		if err != nil {
			return
		}
		m, err := mfa.Compile(q)
		if err != nil {
			return
		}
		interp := hype.New(m)
		interp.SetCompiled(false)
		wantNodes, wantStats := interp.EvalWithStats(doc.Root)
		comp := hype.New(m)
		gotNodes, gotStats := comp.EvalWithStats(doc.Root)
		if len(gotNodes) != len(wantNodes) {
			t.Fatalf("query %q on %q: compiled %d nodes, interpreted %d",
				querySrc, xmlSrc, len(gotNodes), len(wantNodes))
		}
		for i := range gotNodes {
			if gotNodes[i] != wantNodes[i] {
				t.Fatalf("query %q on %q: node %d differs", querySrc, xmlSrc, i)
			}
		}
		if gotStats != wantStats {
			t.Fatalf("query %q on %q: compiled Stats %+v, interpreted %+v",
				querySrc, xmlSrc, gotStats, wantStats)
		}
		tag := fmt.Sprintf("query %q on %q", querySrc, xmlSrc)
		checkColumnarStats(t, tag, m, colstore.FromTree(doc), preorderOf(doc), wantNodes, wantStats)
		parNodes, pst, err := hype.New(m).EvalParallel(context.Background(), doc.Root, 2)
		if err != nil {
			t.Fatalf("%s: parallel: %v", tag, err)
		}
		if len(parNodes) != len(wantNodes) || pst.Stats != wantStats {
			t.Fatalf("%s: parallel %d nodes %+v, interpreted %d nodes %+v",
				tag, len(parNodes), pst.Stats, len(wantNodes), wantStats)
		}
		for i := range parNodes {
			if parNodes[i] != wantNodes[i] {
				t.Fatalf("%s: parallel node %d differs", tag, i)
			}
		}
	})
}
