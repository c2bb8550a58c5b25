package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
)

// columnarQueries exercises structural recursion, text predicates,
// position predicates and steps on labels the document lacks — the
// features whose columnar translation could plausibly diverge from the
// pointer path.
var columnarQueries = []string{
	"department/nosuch",
	"department/patient/nosuch",
	"//diagnosis",
	hospital.XPA,
	"department/patient[visit]/pname",
	"department/patient[not(visit)]",
	"//patient[visit/treatment/medication/diagnosis/text()='heart disease']",
	"department/patient[position()=2]",
}

// TestColumnarEngineMatchesHype demands the columnar engine return the
// same IDs, paths and statistics as the default pointer engine — the
// response must be byte-identical up to the engine label.
func TestColumnarEngineMatchesHype(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Registry().RegisterDocument("corpus", datagen.Generate(datagen.DefaultConfig(80))); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"hospital", "corpus"} {
		for _, src := range columnarQueries {
			want, err := s.Query(context.Background(), QueryRequest{Doc: doc, Query: src, Paths: true})
			if err != nil {
				t.Fatalf("%s %q (hype): %v", doc, src, err)
			}
			got, err := s.Query(context.Background(), QueryRequest{Doc: doc, Query: src, Engine: EngineColumnar, Paths: true})
			if err != nil {
				t.Fatalf("%s %q (columnar): %v", doc, src, err)
			}
			if fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) {
				t.Errorf("%s %q: columnar IDs %v, hype IDs %v", doc, src, got.IDs, want.IDs)
			}
			if fmt.Sprint(got.Paths) != fmt.Sprint(want.Paths) {
				t.Errorf("%s %q: columnar paths differ from hype paths", doc, src)
			}
			if got.Visited != want.Visited || got.Skipped != want.Skipped || got.AFAEvals != want.AFAEvals {
				t.Errorf("%s %q: columnar stats (%d,%d,%d) != hype stats (%d,%d,%d)",
					doc, src, got.Visited, got.Skipped, got.AFAEvals,
					want.Visited, want.Skipped, want.AFAEvals)
			}
		}
	}
}

// TestColumnarOnViewAndExplain covers the two fallback contracts: view
// queries evaluate their rewritten automaton on the columnar source, and a
// traced (explain) columnar request falls back to the pointer path rather
// than failing.
func TestColumnarOnViewAndExplain(t *testing.T) {
	s := newTestServer(t)
	want, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", View: "sigma0", Query: hospital.QExample11})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", View: "sigma0", Query: hospital.QExample11, Engine: EngineColumnar})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) {
		t.Errorf("view query: columnar IDs %v, hype IDs %v", got.IDs, want.IDs)
	}
	exp, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", Query: "//diagnosis", Engine: EngineColumnar, Explain: true})
	if err != nil {
		t.Fatalf("explain with columnar engine: %v", err)
	}
	if exp.Explain == nil || exp.Explain.Trace == nil {
		t.Error("explain with columnar engine returned no trace (pointer fallback broken)")
	}
}

// TestColumnarExplainFallbackRecorded: the columnar→pointer substitution a
// traced (EXPLAIN) columnar request undergoes must be visible, not silent —
// in the response (engine/fallback_from/fallback_reason) and as an
// engine-fallback event on the eval span of the request's trace.
func TestColumnarExplainFallbackRecorded(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Plain columnar: no substitution, no fallback fields.
	plain, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", Query: "//diagnosis", Engine: EngineColumnar})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Engine != EngineColumnar || plain.FallbackFrom != "" || plain.FallbackReason != "" {
		t.Errorf("plain columnar response: engine=%q fallback_from=%q reason=%q",
			plain.Engine, plain.FallbackFrom, plain.FallbackReason)
	}

	// Columnar + explain over HTTP: 200, pointer engine reported with the
	// requested engine and the reason, and the span event in the trace.
	req := QueryRequest{Doc: "hospital", Query: "//diagnosis",
		Engine: EngineColumnar, Explain: true, Trace: true}
	resp, body := postJSON(t, ts, "/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query (columnar+explain): %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Engine != EngineHyPE {
		t.Errorf("engine = %q, want %q (pointer fallback)", qr.Engine, EngineHyPE)
	}
	if qr.FallbackFrom != EngineColumnar {
		t.Errorf("fallback_from = %q, want %q", qr.FallbackFrom, EngineColumnar)
	}
	if qr.FallbackReason == "" {
		t.Error("fallback_reason empty: the substitution is silent")
	}
	if qr.Explain == nil || qr.Explain.Trace == nil {
		t.Fatal("explain payload missing on the fallback path")
	}
	if qr.TraceID == "" {
		t.Fatal("traced request carries no trace_id")
	}
	d := waitForTrace(t, s, qr.TraceID)
	if !spanHasEvent(d, "eval", "engine-fallback") {
		t.Error("eval span lacks the engine-fallback event")
	}

	// The fallback must still answer exactly like the requested engine.
	if fmt.Sprint(qr.IDs) != fmt.Sprint(plain.IDs) {
		t.Errorf("fallback IDs %v differ from columnar IDs %v", qr.IDs, plain.IDs)
	}
}

// TestRegisterSnapshotAnswersIdentical registers the same document twice —
// from XML and from its snapshot — and demands identical answers on every
// engine.
func TestRegisterSnapshotAnswersIdentical(t *testing.T) {
	s := newTestServer(t)
	doc := datagen.Generate(datagen.DefaultConfig(60))
	if _, err := s.Registry().RegisterDocument("direct", doc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := smoqe.WriteSnapshot(smoqe.BuildColumnar(doc), &buf); err != nil {
		t.Fatal(err)
	}
	cd, err := smoqe.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := s.Registry().RegisterSnapshot("snap", cd)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Stats.Elements == 0 {
		t.Fatal("snapshot entry has no stats")
	}
	for _, src := range columnarQueries {
		for _, engine := range []EngineKind{EngineHyPE, EngineOptHyPE, EngineColumnar} {
			want, err := s.Query(context.Background(), QueryRequest{Doc: "direct", Query: src, Engine: engine, Paths: true})
			if err != nil {
				t.Fatalf("%q (%s) on direct: %v", src, engine, err)
			}
			got, err := s.Query(context.Background(), QueryRequest{Doc: "snap", Query: src, Engine: engine, Paths: true})
			if err != nil {
				t.Fatalf("%q (%s) on snap: %v", src, engine, err)
			}
			if fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) || fmt.Sprint(got.Paths) != fmt.Sprint(want.Paths) {
				t.Errorf("%q (%s): snapshot-registered answers differ from direct", src, engine)
			}
		}
	}
}

func TestLoadSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	for name, n := range map[string]int{"alpha": 20, "beta": 40} {
		cd := smoqe.BuildColumnar(datagen.Generate(datagen.DefaultConfig(n)))
		if err := smoqe.SaveSnapshot(cd, filepath.Join(dir, name+smoqe.SnapshotFileExt)); err != nil {
			t.Fatal(err)
		}
	}
	// Non-snapshot files are ignored, not errors.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	n, skipped, err := s.LoadSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(skipped) != 0 {
		t.Fatalf("loaded %d snapshots (%d skipped), want 2 (0 skipped)", n, len(skipped))
	}
	for _, name := range []string{"alpha", "beta"} {
		resp, err := s.Query(context.Background(), QueryRequest{Doc: name, Query: "//patient", Engine: EngineColumnar})
		if err != nil {
			t.Fatalf("query on %s: %v", name, err)
		}
		if resp.Count == 0 {
			t.Errorf("query on %s: no patients in a datagen corpus", name)
		}
	}
	// A corrupt snapshot is skipped and reported — it must not take the
	// healthy snapshots (or the daemon) down with it.
	if err := os.WriteFile(filepath.Join(dir, "corrupt"+smoqe.SnapshotFileExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{})
	n, skipped, err = s2.LoadSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(skipped) != 1 {
		t.Fatalf("with corrupt file: loaded %d (%d skipped), want 2 (1 skipped)", n, len(skipped))
	}
	if !strings.Contains(skipped[0].Error(), "corrupt"+smoqe.SnapshotFileExt) {
		t.Errorf("skip error %q does not name the corrupt file", skipped[0])
	}
	if _, ok := s2.Registry().Document("alpha"); !ok {
		t.Error("healthy snapshot alpha not registered despite corrupt sibling")
	}
}

// TestSnapshotHTTPRoundTrip exports a document's snapshot over GET
// /snapshot and registers the bytes back under a new name over POST
// /snapshot — the corpus-distribution path between daemons.
func TestSnapshotHTTPRoundTrip(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/snapshot?doc=hospital")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("GET /snapshot: Content-Type %q", ct)
	}
	// The export is exactly the canonical snapshot of the document.
	entry, _ := s.Registry().Document("hospital")
	cd, _ := entry.Columnar()
	var want bytes.Buffer
	if err := smoqe.WriteSnapshot(cd, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("GET /snapshot body (%d bytes) differs from canonical snapshot (%d bytes)", len(raw), want.Len())
	}

	resp, err = http.Post(ts.URL+"/snapshot?name=replica", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /snapshot: status %d: %s", resp.StatusCode, body)
	}
	for _, engine := range []EngineKind{EngineHyPE, EngineColumnar} {
		orig, err := s.Query(context.Background(), QueryRequest{Doc: "hospital", Query: hospital.XPA, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Query(context.Background(), QueryRequest{Doc: "replica", Query: hospital.XPA, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rep.IDs) != fmt.Sprint(orig.IDs) {
			t.Errorf("replica answers (%s) %v, original %v", engine, rep.IDs, orig.IDs)
		}
	}

	// Error paths: missing params, unknown doc, corrupt body.
	for _, tc := range []struct {
		method, url string
		body        []byte
		status      int
	}{
		{"GET", "/snapshot", nil, http.StatusBadRequest},
		{"GET", "/snapshot?doc=nope", nil, http.StatusNotFound},
		{"POST", "/snapshot", []byte("x"), http.StatusBadRequest},
		{"POST", "/snapshot?name=bad", []byte("garbage"), http.StatusBadRequest},
	} {
		var r *http.Response
		var err error
		if tc.method == "GET" {
			r, err = http.Get(ts.URL + tc.url)
		} else {
			r, err = http.Post(ts.URL+tc.url, "application/octet-stream", bytes.NewReader(tc.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.url, r.StatusCode, tc.status)
		}
	}

	// The snapshot metric families moved.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, line := range []string{"smoqe_snapshot_loads_total 1", "smoqe_snapshot_saves_total 1"} {
		if !strings.Contains(string(mraw), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}
