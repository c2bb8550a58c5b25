package hype_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// preorderIndex maps every node of d to its preorder rank — the id space of
// the columnar store (xmltree IDs coincide for parsed documents but are not
// guaranteed preorder for hand-built ones, so the test maps explicitly).
func preorderIndex(d *xmltree.Document) map[*xmltree.Node]int {
	idx := make(map[*xmltree.Node]int, d.NumNodes())
	d.Walk(func(n *xmltree.Node) bool {
		idx[n] = len(idx)
		return true
	})
	return idx
}

// TestColumnarMatchesPointerPath runs the full source-query workload on
// both representations and demands identical answers AND identical
// statistics — the columnar DFS must visit, prune and evaluate exactly
// what the interpreted pointer reference does. The two absent-label
// queries pin the has-transitions test: a transition on a label the
// document lacks still makes the children worth a look, and each of them
// is then pruned and counted.
func TestColumnarMatchesPointerPath(t *testing.T) {
	docs := map[string]*xmltree.Document{
		"sample":     hospital.SampleDocument(),
		"datagen-60": datagen.Generate(datagen.DefaultConfig(60)),
	}
	queries := append([]string{"department/nosuch", "department/patient/nosuch"}, sourceQueries...)
	for name, doc := range docs {
		idx := preorderIndex(doc)
		cd := colstore.FromTree(doc)
		for _, src := range queries {
			q := xpath.MustParse(src)
			m := mfa.MustCompile(q)
			ref := hype.New(m)
			ref.SetCompiled(false)
			nodes, pst := ref.EvalWithStats(doc.Root)
			e := hype.New(m)
			want := make([]int, len(nodes))
			for i, n := range nodes {
				want[i] = idx[n]
			}
			// candNodes sorts by xmltree ID; re-sort into preorder order.
			for i := 1; i < len(want); i++ {
				for j := i; j > 0 && want[j] < want[j-1]; j-- {
					want[j], want[j-1] = want[j-1], want[j]
				}
			}
			got, cst, err := e.EvalColumnarCtx(context.Background(), cd)
			if err != nil {
				t.Fatalf("%s %q: columnar error: %v", name, src, err)
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s %q: columnar ids = %v, want %v", name, src, got, want)
			}
			if pst != cst {
				t.Errorf("%s %q: columnar stats = %+v, pointer stats = %+v", name, src, cst, pst)
			}
		}
	}
}

// TestColumnarSnapshotAnswersIdentical checks the save→load path feeds the
// evaluator identically to a freshly built columnar document.
func TestColumnarSnapshotAnswersIdentical(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(40))
	cd := colstore.FromTree(doc)
	path := t.TempDir() + "/d" + colstore.FileExt
	if err := cd.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := colstore.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sourceQueries {
		e := hype.New(mfa.MustCompile(xpath.MustParse(src)))
		got := e.EvalColumnar(loaded)
		want := e.EvalColumnar(cd)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: loaded snapshot answers %v, want %v", src, got, want)
		}
	}
}

func TestColumnarCancellation(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	cd := colstore.FromTree(doc)
	e := hype.New(mfa.MustCompile(xpath.MustParse("//patient")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.EvalColumnarCtx(ctx, cd); err == nil {
		t.Fatal("cancelled context: want error")
	}
}

func TestColumnarLimits(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	cd := colstore.FromTree(doc)
	e := hype.New(mfa.MustCompile(xpath.MustParse("//patient")))
	e.SetLimits(hype.Limits{MaxVisited: 50})
	_, _, err := e.EvalColumnarCtx(context.Background(), cd)
	if err == nil {
		t.Fatal("exceeded visit budget: want error")
	}
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %T: %v", err, err)
	}
}
