// Command perfbench is SMOQE's serving benchmark. It runs an in-process
// server behind loopback net/http, drives it with an open-loop load
// generator on at most GOMAXPROCS connections, checks every answer against
// the reference evaluator, and prints the metrics of one workload:
//
//	perfbench --workload churn --seed 1 --seconds 30 --trace 0
//	perfbench compare old1.json old2.json ... -- new1.json new2.json ...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 a separate traced run reports the
// per-layer ones. The full record (environment, sizes, seeds, every
// metric) is also written under --out. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smoqe/internal/hospital"
	"smoqe/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload to run: hospital_read, churn or collection")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same documents, queries and schedules")
	seconds := flag.Int("seconds", 30, "measured seconds (nominal phase plus rate ladder)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for the full result record and span dump")
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traced)
		os.Exit(2)
	}
	rec, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// bench is one run's state: the inputs, the live server under test and
// the client that drives it.
type bench struct {
	in     *inputs
	conns  int
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	docs   *docState
	// traceReads makes reads ask the server to retain their traces.
	traceReads bool
	// cfg is the server configuration of the next set-up.
	cfg server.Config

	bodyMu sync.Mutex
	bodies map[string][]byte // guarded by bodyMu; POST /docs bodies by name/content

	attempted atomic.Int64

	failMu   sync.Mutex
	failures []string // guarded by failMu; first few failure messages
	nfail    int      // guarded by failMu
}

// defaultConfig is smoqed's flag defaults: a 256-plan cache, admission at
// 4×GOMAXPROCS with a 100 ms queue wait, parallelism off and the default
// tracer. One departure: a collection query evaluates its documents one at
// a time (smoqed's default fans out on GOMAXPROCS workers). On a shared
// two-vCPU host, a fan-out over both vCPUs ran either about twice as fast
// as one worker or slower than it, depending on whether the host let both
// run at once; the median then sat between the two modes and swung from
// run to run (interquartile spread 0.34 of the median over five seeds,
// against 0.09 with one worker).
func defaultConfig() server.Config {
	return server.Config{
		CacheSize:          256,
		MaxConcurrentEvals: 4 * runtime.GOMAXPROCS(0),
		QueueWait:          100 * time.Millisecond,
		MaxParallelism:     0,
		CorpusWorkers:      -1,
	}
}

func (b *bench) fail(msg string) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	b.nfail++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, msg)
	}
}

func (b *bench) failureCount() int {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	return b.nfail
}

// docBody is the POST /docs body registering content under name.
func (b *bench) docBody(name string, content int) []byte {
	key := fmt.Sprintf("%s/%d", name, content)
	b.bodyMu.Lock()
	defer b.bodyMu.Unlock()
	if body, ok := b.bodies[key]; ok {
		return body
	}
	body := mustJSON(map[string]string{"name": name, "xml": b.in.contents[content]})
	b.bodies[key] = body
	return body
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are encoded
	}
	return raw
}

// encodeBodies pre-encodes every read request, plain and traced.
func (in *inputs) encodeBodies() {
	for i := range in.reads {
		r := &in.reads[i]
		if r.coll {
			r.body = mustJSON(server.CollectionQueryRequest{Query: r.query, View: r.view})
			continue
		}
		req := server.QueryRequest{Doc: r.doc, View: r.view, Query: r.query, Engine: server.EngineKind(r.engine)}
		r.body = mustJSON(req)
		req.Trace = true
		r.tracedBody = mustJSON(req)
	}
}

// start brings up a fresh server on a loopback port.
func (b *bench) start() error {
	b.srv = server.New(b.cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.docs = newDocState(b.in.slots)
	return nil
}

// register installs σ0 and the documents through the HTTP API, or opens
// the corpus, and answers every read class once so the plan cache and the
// lazy per-document structures are warm.
func (b *bench) register(ctx context.Context, spans *spanLog) error {
	view := mustJSON(map[string]string{
		"name": viewName, "spec": hospital.Sigma0Source,
		"source_dtd": hospital.DocDTDSource, "target_dtd": hospital.ViewDTDSource,
	})
	var vresp map[string]any
	if _, err := b.post("/views", view, http.StatusCreated, &vresp); err != nil {
		return fmt.Errorf("register view: %w", err)
	}
	for _, s := range b.in.slots {
		c := s.cycle[0]
		var resp struct {
			Elements int `json:"elements"`
		}
		t := time.Now()
		if _, err := b.post("/docs", b.docBody(s.name, c), http.StatusCreated, &resp); err != nil {
			return fmt.Errorf("register %s: %w", s.name, err)
		}
		spans.add("bench.post_docs", t, time.Since(t))
		if resp.Elements != b.in.elements[c] {
			return fmt.Errorf("register %s: %d elements, want %d", s.name, resp.Elements, b.in.elements[c])
		}
	}
	if b.in.corpusDir != "" {
		if err := clearManifests(filepath.Join(b.in.corpusDir, collName)); err != nil {
			return err
		}
		t := time.Now()
		if err := b.srv.OpenCorpus(ctx, b.in.corpusDir); err != nil {
			return fmt.Errorf("open corpus: %w", err)
		}
		spans.add("bench.corpus_open", t, time.Since(t))
	}
	b.warm()
	return nil
}

// warm answers every read class once (for the churn pool: the first
// query of every document × engine pair), checking each answer.
func (b *bench) warm() {
	var ops []op
	if b.in.weights != nil {
		for i := range b.in.reads {
			ops = append(ops, op{read: i})
		}
	} else {
		seen := map[string]bool{}
		for i, r := range b.in.reads {
			k := r.doc + "/" + r.engine
			if !seen[k] {
				seen[k] = true
				ops = append(ops, op{read: i})
			}
		}
	}
	for _, o := range ops {
		b.do(o) // a wrong answer is recorded as a failure of the run
	}
}

func (b *bench) failureList() []string {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	return append([]string(nil), b.failures...)
}

// clearManifests removes a collection's durable manifests, so every
// set-up indexes the corpus from scratch.
func clearManifests(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".smoqe-manifest") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// stop shuts the server down and waits for its serve loop to return.
func (b *bench) stop() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // a drain timeout still stops the listener
	<-b.served
	b.srv.CloseCorpus()
	b.client.CloseIdleConnections()
	b.hs, b.srv = nil, nil
}

// setupsPerRun is how many fresh set-ups a run makes; setup_s is their
// median.
const setupsPerRun = 5

// setup makes n fresh set-ups (server start, registration, warm-up) and
// keeps the last one running. It returns each set-up's duration.
func (b *bench) setup(ctx context.Context, n int, spans *spanLog) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		b.stop()
		runtime.GC()
		if err := b.start(); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := b.register(ctx, spans); err != nil {
			return nil, err
		}
		d := time.Since(t)
		spans.add("bench.setup", t, d)
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

func newBench(in *inputs, cfg server.Config) *bench {
	conns := runtime.GOMAXPROCS(0)
	return &bench{
		in:    in,
		conns: conns,
		cfg:   cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		bodies: map[string][]byte{},
	}
}

// phaseRNG returns the deterministic schedule source of one phase.
func phaseRNG(seed int64, phase string) *rand.Rand {
	h := int64(0)
	for _, c := range phase {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// run makes one measured run of a workload and returns its record.
func run(sp spec, seed int64, seconds time.Duration, traced bool, outDir string) (*record, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	in, err := genInputs(sp, seed, work)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	return measure(in, seconds, traced, outDir)
}

// measure runs the workload on generated inputs, writes the record under
// outDir and prints its report.
func measure(in *inputs, seconds time.Duration, traced bool, outDir string) (*record, error) {
	ctx := context.Background()
	in.encodeBodies()
	rec := newRecord(in.sp, in.seed, seconds, traced, in)
	var err error
	if traced {
		err = runTraced(ctx, in, seconds, rec)
	} else {
		err = runEndToEnd(ctx, in, seconds, rec)
	}
	if err != nil {
		return nil, err
	}
	if err := rec.write(outDir); err != nil {
		return nil, err
	}
	rec.print(os.Stdout)
	return rec, nil
}
