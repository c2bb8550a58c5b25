package hype_test

import (
	"context"
	"errors"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

func limitEngine(t *testing.T, query string, l hype.Limits) *hype.Engine {
	t.Helper()
	m, err := mfa.Compile(xpath.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	e := hype.New(m)
	e.SetLimits(l)
	return e
}

func TestMaxVisitedAbortsSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	e := limitEngine(t, "//diagnosis", hype.Limits{MaxVisited: 512})
	_, _, err := e.EvalCtx(context.Background(), doc.Root)
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.What != hype.LimitVisited || le.Limit != 512 {
		t.Errorf("LimitError = %+v", le)
	}
}

func TestMaxResultNodesAbortsSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	// ** selects every element — the candidate set grows with the walk.
	e := limitEngine(t, "**", hype.Limits{MaxResultNodes: 100})
	_, _, err := e.EvalCtx(context.Background(), doc.Root)
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.What != hype.LimitResults {
		t.Errorf("LimitError = %+v", le)
	}
}

func TestGenerousLimitsDoNotDisturbResults(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	free := limitEngine(t, "//diagnosis", hype.Limits{})
	want := free.Eval(doc.Root)

	e := limitEngine(t, "//diagnosis", hype.Limits{MaxVisited: 1 << 30, MaxResultNodes: 1 << 30})
	got, _, err := e.EvalCtx(context.Background(), doc.Root)
	if err != nil {
		t.Fatalf("generous limits aborted: %v", err)
	}
	if len(got) != len(want) {
		t.Errorf("got %d nodes, want %d", len(got), len(want))
	}
}

func TestMaxVisitedAbortsParallel(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	e := limitEngine(t, "//diagnosis", hype.Limits{MaxVisited: 512})
	_, _, err := e.EvalParallel(context.Background(), doc.Root, 4)
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("parallel err = %v, want *LimitError", err)
	}
	if le.What != hype.LimitVisited {
		t.Errorf("LimitError = %+v", le)
	}
}

func TestParallelGenerousLimitsMatchSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(300))
	free := limitEngine(t, "//diagnosis", hype.Limits{})
	want := free.Eval(doc.Root)

	e := limitEngine(t, "//diagnosis", hype.Limits{MaxVisited: 1 << 30})
	got, _, err := e.EvalParallel(context.Background(), doc.Root, 4)
	if err != nil {
		t.Fatalf("parallel with generous limits: %v", err)
	}
	if len(got) != len(want) {
		t.Errorf("got %d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

// TestShardWorkerPanicIsIsolated: a panic inside one shard worker — injected
// via the hype.shard.worker failpoint — must surface as a typed error from
// EvalParallel, not kill the process or hang the merge barrier.
func TestShardWorkerPanicIsIsolated(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis", hype.Limits{})

	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.EvalParallel(context.Background(), doc.Root, 4)
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *guard.PanicError", err)
	}
	if pe.Site != failpoint.SiteHypeShardWorker {
		t.Errorf("site = %q", pe.Site)
	}

	// The engine must recover fully: disarm and evaluate again.
	failpoint.DisableAll()
	free := limitEngine(t, "//diagnosis", hype.Limits{})
	want := free.Eval(doc.Root)
	got, _, err := e.EvalParallel(context.Background(), doc.Root, 4)
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if len(got) != len(want) {
		t.Errorf("after recovery: %d nodes, want %d", len(got), len(want))
	}
}

// TestShardWorkerErrorFailpoint: error mode fails the evaluation cleanly.
func TestShardWorkerErrorFailpoint(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis", hype.Limits{})
	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "error"); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.EvalParallel(context.Background(), doc.Root, 4)
	var fe *failpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *failpoint.Error", err)
	}
}

// TestColumnarLimitsMatchPointer is the satellite audit of EvalLimits on the
// columnar path: at any budget, pointer and columnar evaluation must trip
// the SAME limit (same *LimitError What/Limit) at the SAME point — both
// paths flush consumption in identical cancelCheckInterval quanta over the
// identical preorder DFS, so even the partial visited counts of aborted
// runs must agree. The columnar pass is checked against both the compiled
// pointer pass and the interpreted pointer reference.
func TestColumnarLimitsMatchPointer(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	cd := colstore.FromTree(doc)
	queries := []string{"//diagnosis", "**", "department/patient[visit]/pname"}
	budgets := []hype.Limits{
		{MaxVisited: 256},
		{MaxVisited: 512},
		{MaxVisited: 1 << 30}, // generous: neither path may trip
		{MaxResultNodes: 50},
		{MaxResultNodes: 1 << 30},
		{MaxVisited: 512, MaxResultNodes: 50},
	}
	for _, src := range queries {
		for _, l := range budgets {
			for _, compiled := range []bool{true, false} {
				ptr := limitEngine(t, src, l)
				ptr.SetCompiled(compiled)
				_, ptrStats, ptrErr := ptr.EvalCtx(context.Background(), doc.Root)

				col := limitEngine(t, src, l)
				_, colStats, colErr := col.EvalColumnarCtx(context.Background(), cd)

				var ptrLE, colLE *hype.LimitError
				if errors.As(ptrErr, &ptrLE) != errors.As(colErr, &colLE) {
					t.Fatalf("%q limits=%+v compiled=%v: pointer err=%v, columnar err=%v",
						src, l, compiled, ptrErr, colErr)
				}
				if ptrLE != nil && (ptrLE.What != colLE.What || ptrLE.Limit != colLE.Limit) {
					t.Errorf("%q limits=%+v compiled=%v: pointer %+v vs columnar %+v",
						src, l, compiled, ptrLE, colLE)
				}
				if ptrStats.VisitedElements != colStats.VisitedElements {
					t.Errorf("%q limits=%+v compiled=%v: visited %d (pointer) vs %d (columnar)",
						src, l, compiled, ptrStats.VisitedElements, colStats.VisitedElements)
				}
			}
		}
	}
}

// TestMergeFailpoint: the hype.merge site fails a parallel run after the
// barrier.
func TestMergeFailpoint(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis", hype.Limits{})
	if err := failpoint.Enable(failpoint.SiteHypeMerge, "error"); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.EvalParallel(context.Background(), doc.Root, 4)
	var fe *failpoint.Error
	if !errors.As(err, &fe) || fe.Site != failpoint.SiteHypeMerge {
		t.Fatalf("err = %v, want merge failpoint error", err)
	}
}
