package hype_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// reference is the interpreted sequential pointer pass on a fresh engine:
// what every compiled, columnar and parallel run must reproduce.
func reference(mk func() *hype.Engine) *hype.Engine {
	e := mk()
	e.SetCompiled(false)
	return e
}

// assertParallelMatches runs the parallel pass and the interpreted
// sequential reference on fresh engines and demands exact agreement: the
// answer nodes, their order, and every Stats counter. This is the contract
// parallel.go promises ("identical by construction"), so any drift is a
// bug, not noise.
func assertParallelMatches(t *testing.T, name, src string, mk func() *hype.Engine, root *xmltree.Node, workers int) {
	t.Helper()
	want, wantSt := reference(mk).EvalWithStats(root)
	got, pst, err := mk().EvalParallel(context.Background(), root, workers)
	if err != nil {
		t.Errorf("%s w=%d: query %q: unexpected error %v", name, workers, src, err)
		return
	}
	if !same(got, want) {
		t.Errorf("%s w=%d: query %q:\n got %v\nwant %v", name, workers, src, ids(got), ids(want))
	}
	if pst.Stats != wantSt {
		t.Errorf("%s w=%d: query %q: stats diverge:\n got %+v\nwant %+v", name, workers, src, pst.Stats, wantSt)
	}
	if pst.Shards > 0 && pst.Workers == 0 {
		t.Errorf("%s w=%d: query %q: %d shards but zero workers", name, workers, src, pst.Shards)
	}
}

func TestParallelMatchesSequentialOnSample(t *testing.T) {
	doc := hospital.SampleDocument()
	plain := hype.BuildIndex(doc, false)
	comp := hype.BuildIndex(doc, true)
	for _, src := range sourceQueries {
		m := mfa.MustCompile(xpath.MustParse(src))
		mks := map[string]func() *hype.Engine{
			"HyPE":      func() *hype.Engine { return hype.New(m) },
			"OptHyPE":   func() *hype.Engine { return hype.NewOpt(m, plain) },
			"OptHyPE-C": func() *hype.Engine { return hype.NewOpt(m, comp) },
		}
		for name, mk := range mks {
			for _, w := range []int{1, 2, 4} {
				assertParallelMatches(t, name, src, mk, doc.Root, w)
			}
		}
	}
}

func TestParallelMatchesSequentialOnGenerated(t *testing.T) {
	// A §7-style document: several departments (natural top-level shards)
	// with enough skew that domination splitting fires on some seeds.
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	idx := hype.BuildIndex(doc, true)
	for _, src := range []string{
		"department/patient/pname",
		"//diagnosis",
		"department/patient[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
		"department/patient/(parent/patient)*/pname",
		"department/patient[not(visit)]",
		hospital.RXB,
	} {
		m := mfa.MustCompile(xpath.MustParse(src))
		for _, w := range []int{2, 4} {
			assertParallelMatches(t, "HyPE", src, func() *hype.Engine { return hype.New(m) }, doc.Root, w)
			assertParallelMatches(t, "OptHyPE-C", src, func() *hype.Engine { return hype.NewOpt(m, idx) }, doc.Root, w)
		}
	}
}

func TestParallelAtInteriorContext(t *testing.T) {
	doc := hospital.SampleDocument()
	dep := doc.Root.ElementChildren()[0]
	for _, src := range []string{"patient", "patient[visit/treatment/test]", "(patient | patient/parent/patient)/pname"} {
		m := mfa.MustCompile(xpath.MustParse(src))
		assertParallelMatches(t, "HyPE", src, func() *hype.Engine { return hype.New(m) }, dep, 4)
	}
}

// TestParallelDominationSplit forces the single-dominating-shard shape: a
// root whose one element child holds everything. The planner must split
// through the chain instead of degenerating into one sequential shard. The
// exact cut (8 spine nodes, 3 shards) is pinned: the planner's decisions
// depend only on the document and the pruning, never on how a node is
// visited.
func TestParallelDominationSplit(t *testing.T) {
	doc := hospital.SampleDocument()
	// Rebuild the sample document under a chain of two singleton elements,
	// so the entire tree hangs off one child at each of the first two
	// levels.
	wrapped := xmltree.NewDocument("outer")
	inner := wrapped.AddElement(wrapped.Root, "inner")
	graft(wrapped, inner, doc.Root)

	src := "inner/" + doc.Root.Label + "/department/patient/pname"
	m := mfa.MustCompile(xpath.MustParse(src))
	want, wantSt := reference(func() *hype.Engine { return hype.New(m) }).EvalWithStats(wrapped.Root)
	got, pst, err := hype.New(m).EvalParallel(context.Background(), wrapped.Root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !same(got, want) {
		t.Fatalf("got %v want %v", ids(got), ids(want))
	}
	if pst.Stats != wantSt {
		t.Fatalf("stats diverge: got %+v want %+v", pst.Stats, wantSt)
	}
	if pst.SpineNodes != 8 {
		t.Errorf("SpineNodes = %d, want 8: the dominating chain should have been split", pst.SpineNodes)
	}
	if pst.Shards != 3 {
		t.Errorf("Shards = %d, want 3: splitting should expose the departments", pst.Shards)
	}
}

func TestParallelTaggedMatchesSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(1500))
	queries := []string{hospital.XPA, hospital.XPB, "//diagnosis", "department/patient[not(visit)]", "nosuchlabel"}
	var ms []*mfa.MFA
	for _, src := range queries {
		ms = append(ms, mfa.MustCompile(xpath.MustParse(src)))
	}
	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := reference(func() *hype.Engine { return hype.New(merged) }).EvalTaggedWithStats(doc.Root)
	got, pst, err := hype.New(merged).EvalTaggedParallel(context.Background(), doc.Root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if !same(got[i], want[i]) {
			t.Errorf("bucket %d (%q): got %v want %v", i, queries[i], ids(got[i]), ids(want[i]))
		}
	}
	if pst.Stats != wantSt {
		t.Errorf("stats diverge: got %+v want %+v", pst.Stats, wantSt)
	}
}

// TestParallelUnderTinyCache runs shard-parallel evaluation through the
// subset-cache lifecycle: with cache cap 1 the planner and every worker
// clone (clones inherit the cap, not the cache) flush and fall back to
// uncached NFA simulation, and answers and Stats must still equal the
// interpreted sequential reference — with no index, a plain index and a
// compressed index, and for a batch automaton.
func TestParallelUnderTinyCache(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(400))
	plain := hype.BuildIndex(doc, false)
	comp := hype.BuildIndex(doc, true)
	queries := []string{hospital.RXC, "//patient", "department/patient[visit and parent]", "department/patient[not(visit)]/pname"}
	var ms []*mfa.MFA
	for _, src := range queries {
		ms = append(ms, mfa.MustCompile(xpath.MustParse(src)))
	}
	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	tiny := func(e *hype.Engine) *hype.Engine {
		e.SetCompiledCacheCap(1)
		return e
	}
	ctx := context.Background()
	for _, ix := range []struct {
		name string
		idx  *hype.Index
	}{{"HyPE", nil}, {"OptHyPE", plain}, {"OptHyPE-C", comp}} {
		mk := func(m *mfa.MFA) func() *hype.Engine {
			return func() *hype.Engine {
				if ix.idx == nil {
					return hype.New(m)
				}
				return hype.NewOpt(m, ix.idx)
			}
		}
		for i, m := range ms {
			want, wantSt := reference(mk(m)).EvalWithStats(doc.Root)
			for _, w := range []int{2, 4} {
				got, pst, err := tiny(mk(m)()).EvalParallel(ctx, doc.Root, w)
				if err != nil {
					t.Fatalf("%s w=%d %q: %v", ix.name, w, queries[i], err)
				}
				if !same(got, want) || pst.Stats != wantSt {
					t.Errorf("%s w=%d %q: cap-1 parallel run diverges from the reference:\n got %v %+v\nwant %v %+v",
						ix.name, w, queries[i], ids(got), pst.Stats, ids(want), wantSt)
				}
				if pst.Shards < 2 {
					t.Errorf("%s w=%d %q: %d shards; the workers never ran", ix.name, w, queries[i], pst.Shards)
				}
			}
		}
		want, wantSt := reference(mk(merged)).EvalTaggedWithStats(doc.Root)
		for _, w := range []int{2, 4} {
			got, pst, err := tiny(mk(merged)()).EvalTaggedParallel(ctx, doc.Root, w)
			if err != nil {
				t.Fatalf("%s w=%d batch: %v", ix.name, w, err)
			}
			for i := range want {
				if !same(got[i], want[i]) {
					t.Errorf("%s w=%d batch bucket %d (%q): got %v want %v", ix.name, w, i, queries[i], ids(got[i]), ids(want[i]))
				}
			}
			if pst.Stats != wantSt {
				t.Errorf("%s w=%d batch: stats diverge:\n got %+v\nwant %+v", ix.name, w, pst.Stats, wantSt)
			}
		}
	}
}

// graft copies the subtree rooted at src into dst under parent.
func graft(dst *xmltree.Document, parent *xmltree.Node, src *xmltree.Node) {
	if src.Kind == xmltree.Text {
		dst.AddText(parent, src.Data)
		return
	}
	n := dst.AddElement(parent, src.Label)
	for _, c := range src.Children {
		graft(dst, n, c)
	}
}

// countdownCtx reports Canceled after its Err budget is spent — a
// deterministic stand-in for a client that disconnects mid-evaluation.
// Err is polled concurrently from worker goroutines, hence the atomic.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestEvalCtxCancellation(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	total := doc.ComputeStats().Elements
	m := mfa.MustCompile(xpath.MustParse("//diagnosis"))

	// Already-cancelled context: no work at all.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	e := hype.New(m)
	if _, _, err := e.EvalCtx(cancelled, doc.Root); err == nil {
		t.Fatal("EvalCtx with cancelled context returned nil error")
	}

	// Cancellation mid-run: the DFS must stop early, not finish the pass.
	e = hype.New(m)
	nodes, st, err := e.EvalCtx(newCountdownCtx(3), doc.Root)
	if err == nil {
		t.Fatal("EvalCtx ignored mid-run cancellation")
	}
	if nodes != nil {
		t.Errorf("cancelled run returned %d nodes; want none", len(nodes))
	}
	if st.VisitedElements >= total {
		t.Errorf("cancelled run visited all %d elements; cancellation did not abort the DFS", total)
	}
}

func TestParallelCancellation(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	total := doc.ComputeStats().Elements
	m := mfa.MustCompile(xpath.MustParse("//diagnosis"))

	// Already-cancelled context: refused before any shard runs.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := hype.New(m).EvalParallel(cancelled, doc.Root, 4); err == nil {
		t.Fatal("EvalParallel with cancelled context returned nil error")
	}

	// Cancellation mid-run across workers.
	nodes, pst, err := hype.New(m).EvalParallel(newCountdownCtx(20), doc.Root, 4)
	if err == nil {
		t.Fatal("EvalParallel ignored mid-run cancellation")
	}
	if nodes != nil {
		t.Errorf("cancelled run returned %d nodes; want none", len(nodes))
	}
	if pst.VisitedElements >= total {
		t.Errorf("cancelled run visited all %d elements", total)
	}

	// A real context.WithCancel fired from another goroutine must also
	// abort promptly (covers the Done/Err interplay the fake skips).
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	big := datagen.Generate(datagen.DefaultConfig(20000))
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := hype.New(m).EvalParallel(ctx, big.Root, 4); err != nil {
			return // cancelled, as required
		}
	}
	t.Fatal("EvalParallel kept completing despite cancelled context")
}
