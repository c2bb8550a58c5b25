package smoqe_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
)

// TestPreparedQueryMatchesReference: prepared evaluation (HyPE and
// OptHyPE) must agree with the one-shot facade and the reference
// evaluator.
func TestPreparedQueryMatchesReference(t *testing.T) {
	doc, err := smoqe.ParseDocumentString(hospital.SampleXML)
	if err != nil {
		t.Fatal(err)
	}
	idx := smoqe.BuildIndex(doc, true)
	for _, src := range []string{
		hospital.XPA,
		hospital.QExample11,
		"//diagnosis",
		"department/patient[not(visit)]",
	} {
		q, err := smoqe.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := smoqe.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		want := smoqe.IDsOf(smoqe.EvalReference(q, doc.Root))
		if got := smoqe.IDsOf(p.Eval(doc.Root)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: prepared %v, reference %v", src, got, want)
		}
		if got := smoqe.IDsOf(p.EvalIndexed(doc.Root, idx)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: prepared indexed %v, reference %v", src, got, want)
		}
	}
}

// TestPreparedQueryConcurrent: one PreparedQuery, many goroutines, same
// answers every time — run under -race this exercises the engine pool.
func TestPreparedQueryConcurrent(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(120))
	idx := smoqe.BuildIndex(doc, true)
	p, err := smoqe.PrepareString("//patient[visit/treatment/medication/diagnosis/text()='heart disease']")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(smoqe.IDsOf(p.Eval(doc.Root)))

	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var got []*smoqe.Node
				if (g+i)%2 == 0 {
					got = p.Eval(doc.Root)
				} else {
					got = p.EvalIndexed(doc.Root, idx)
				}
				if s := fmt.Sprint(smoqe.IDsOf(got)); s != want {
					select {
					case errs <- fmt.Sprintf("goroutine %d round %d: %s != %s", g, i, s, want):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := p.Stats()
	if st.Evaluations != goroutines*rounds+1 {
		t.Errorf("Stats.Evaluations = %d, want %d", st.Evaluations, goroutines*rounds+1)
	}
	if st.Engine.VisitedElements <= 0 {
		t.Errorf("aggregated VisitedElements = %d, want > 0", st.Engine.VisitedElements)
	}
}

// TestPreparedOnView: the prepared path through rewrite answers view
// queries identically to AnswerOnView.
func TestPreparedOnView(t *testing.T) {
	v := hospital.Sigma0()
	doc := datagen.Generate(datagen.DefaultConfig(80))
	q, err := smoqe.ParseQuery(hospital.QExample11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := smoqe.PrepareOnView(v, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := smoqe.AnswerOnView(v, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(doc.Root); fmt.Sprint(smoqe.IDsOf(got)) != fmt.Sprint(smoqe.IDsOf(want)) {
		t.Errorf("prepared view answers differ: %v vs %v", smoqe.IDsOf(got), smoqe.IDsOf(want))
	}
}

// TestPreparedParallelMatchesSequential: the facade's shard-parallel
// entry points agree exactly with their sequential counterparts, both
// plain and indexed, from many goroutines at once.
func TestPreparedParallelMatchesSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(600))
	idx := smoqe.BuildIndex(doc, true)
	for _, src := range []string{hospital.XPA, "//diagnosis", "department/patient[not(visit)]"} {
		p, err := smoqe.PrepareString(src)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt := p.EvalWithStats(doc.Root)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, pst, err := p.EvalParallelCtx(context.Background(), doc.Root, 4)
				if err != nil {
					t.Errorf("%s: parallel: %v", src, err)
					return
				}
				if fmt.Sprint(smoqe.IDsOf(got)) != fmt.Sprint(smoqe.IDsOf(want)) {
					t.Errorf("%s: parallel answers differ", src)
				}
				if pst.Stats != wantSt {
					t.Errorf("%s: parallel stats %+v, sequential %+v", src, pst.Stats, wantSt)
				}
				igot, ipst, err := p.EvalIndexedParallelCtx(context.Background(), doc.Root, idx, 4)
				if err != nil {
					t.Errorf("%s: indexed parallel: %v", src, err)
					return
				}
				if fmt.Sprint(smoqe.IDsOf(igot)) != fmt.Sprint(smoqe.IDsOf(want)) {
					t.Errorf("%s: indexed parallel answers differ", src)
				}
				if ipst.SkippedElements < pst.SkippedElements {
					t.Errorf("%s: indexed parallel skipped fewer elements (%d) than plain (%d)",
						src, ipst.SkippedElements, pst.SkippedElements)
				}
			}()
		}
		wg.Wait()
	}
}

// TestPreparedIndexPoolsBounded: every replaced document brings a fresh
// index, and a plan keeps one OptHyPE engine pool per index it has seen.
// Over 50 fresh indexes the plan must never hold more than MaxIndexPools
// of them, and clearing the pools must not change any answer.
func TestPreparedIndexPoolsBounded(t *testing.T) {
	p, err := smoqe.PrepareString("department/patient[visit]/pname")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cfg := datagen.DefaultConfig(5)
		cfg.Seed = int64(i + 1)
		doc := datagen.Generate(cfg)
		want := smoqe.IDsOf(p.Eval(doc.Root))
		got := smoqe.IDsOf(p.EvalIndexed(doc.Root, smoqe.BuildIndex(doc, true)))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("document %d: indexed answers %v, plain %v", i, got, want)
		}
		if n := smoqe.IndexPoolCount(p); n > smoqe.MaxIndexPools {
			t.Fatalf("after %d indexes the plan holds %d engine pools, bound %d", i+1, n, smoqe.MaxIndexPools)
		}
	}
}

// TestPreparedEvalCtxCancelled: a cancelled context aborts evaluation with
// an error and the run is not counted in the aggregate statistics.
func TestPreparedEvalCtxCancelled(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(600))
	p, err := smoqe.PrepareString("//diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.EvalCtx(ctx, doc.Root); err == nil {
		t.Fatal("EvalCtx with cancelled context returned nil error")
	}
	if _, _, err := p.EvalParallelCtx(ctx, doc.Root, 4); err == nil {
		t.Fatal("EvalParallelCtx with cancelled context returned nil error")
	}
	if st := p.Stats(); st.Evaluations != 0 {
		t.Errorf("cancelled runs were counted: Evaluations = %d", st.Evaluations)
	}
	// And after cancellation the plan still works.
	if nodes, _, err := p.EvalCtx(context.Background(), doc.Root); err != nil || len(nodes) == 0 {
		t.Fatalf("plan unusable after cancelled run: %v (%d nodes)", err, len(nodes))
	}
}

// TestPreparedTaggedParallel: batch evaluation through the facade, sharded.
func TestPreparedTaggedParallel(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(600))
	queries := []string{hospital.XPA, "//diagnosis", "department/patient[not(visit)]"}
	var ms []*smoqe.MFA
	for _, src := range queries {
		q, err := smoqe.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := smoqe.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	merged, err := smoqe.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	p := smoqe.PrepareMFA(merged)
	want := p.EvalTagged(doc.Root)
	got, _, err := p.EvalTaggedParallelCtx(context.Background(), doc.Root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(smoqe.IDsOf(got[i])) != fmt.Sprint(smoqe.IDsOf(want[i])) {
			t.Errorf("bucket %d (%q): parallel differs", i, queries[i])
		}
	}
}
