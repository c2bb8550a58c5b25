package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/qgen"
)

// spec is one workload's fixed settings. Rates are absolute numbers, never
// derived from the capacity a run measures, so the parent commit and a
// change are driven by exactly the same load. The nominal rates keep two
// cores less than a fifth busy, so queueing does not amplify run-to-run
// swings in machine speed into latency.
type spec struct {
	name string
	// readRate is the nominal open-loop read rate (requests per second).
	readRate float64
	// writeRate is the POST /docs rate, the same at every read rate; only
	// churn writes.
	writeRate float64
	// ladder lists the read rates tried above the nominal one for
	// max_rate_rps: a rate well inside capacity, then an overload rate.
	ladder []float64
	// limitMs is the p90 read latency a ladder rung must meet.
	limitMs float64
	// scale multiplies every generated size (1 in real runs; the smoke
	// test shrinks it).
	scale float64
}

var specs = []spec{
	{
		name:     "hospital_read",
		readRate: 12,
		ladder:   []float64{85, 260},
		limitMs:  200,
		scale:    1,
	},
	{
		name:      "churn",
		readRate:  80,
		writeRate: 10,
		ladder:    []float64{550, 3000},
		limitMs:   100,
		scale:     1,
	},
	{
		name:     "collection",
		readRate: 5,
		ladder:   []float64{14, 60},
		limitMs:  500,
		scale:    1,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// Names of the registered view and collection.
const (
	viewName = "sigma0"
	collName = "coll"
)

// readOp is one read class: a /query request (doc set) or a collection
// query (coll set), with its pre-encoded body and expected answers.
type readOp struct {
	class  string
	doc    string
	view   string
	query  string
	engine string
	coll   bool
	// body and tracedBody are the encoded request, without and with
	// "trace": true.
	body       []byte
	tracedBody []byte
	// want holds the expected IDs per document content (indexed by
	// content id) for /query reads.
	want [][]int
	// wantColl is the expected results array of a collection query, in
	// document-name order, and wantCount its total.
	wantColl  []collResult
	wantCount int
}

// collResult is one document's entry in a collection response.
type collResult struct {
	Doc   string `json:"doc"`
	Count int    `json:"count"`
	IDs   []int  `json:"ids"`
}

// docSlot is a document name the server holds; its content changes when a
// write replaces it.
type docSlot struct {
	name string
	// cycle lists the content ids the slot holds in turn: the first is
	// registered at set-up, each write moves to the next.
	cycle []int
}

// inputs is everything a workload run sends, generated from the seed
// before any timing starts. The program only ever sees the XML and query
// texts.
type inputs struct {
	sp       spec
	seed     int64
	contents []string // XML texts, indexed by content id
	elements []int    // element count per content (checks write responses)
	slots    []docSlot
	reads    []readOp
	// weights gives each read class its share of the mix in whole units;
	// nil means uniform draws (the churn pool).
	weights []int
	// writeSlots are the slots writes replace, round-robin.
	writeSlots []int
	// corpusDir holds the collection's files (collection only).
	corpusDir string
	corpusXML []string // each corpus document's XML, in name order
	sizes     map[string]any
}

// hospitalXML generates one hospital document and renders it as XML.
func hospitalXML(cfg datagen.Config) string {
	var b bytes.Buffer
	if err := datagen.Generate(cfg).WriteXML(&b, false); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return b.String()
}

func scaled(n int, f float64) int {
	m := int(float64(n)*f + 0.5)
	if m < 1 {
		m = 1
	}
	return m
}

// oracle answers queries on fixed documents with the reference evaluator;
// σ0 queries run on the materialized view and map back to source nodes.
type oracle struct {
	docs []*smoqe.Document
	mats []*smoqe.Materialization
}

func newOracle(xmls []string, needView bool) (*oracle, error) {
	o := &oracle{}
	for _, x := range xmls {
		d, err := smoqe.ParseDocumentString(x)
		if err != nil {
			return nil, err
		}
		o.docs = append(o.docs, d)
		if needView {
			m, err := smoqe.Materialize(hospital.Sigma0(), d)
			if err != nil {
				return nil, err
			}
			o.mats = append(o.mats, m)
		}
	}
	return o, nil
}

// answer returns the expected IDs of q on document i.
func (o *oracle) answer(i int, q smoqe.Query, onView bool) []int {
	if onView {
		m := o.mats[i]
		return smoqe.IDsOf(m.SourceOf(smoqe.EvalReference(q, m.Doc.Root)))
	}
	return smoqe.IDsOf(smoqe.EvalReference(q, o.docs[i].Root))
}

var engines = []string{"hype", "opthype", "columnar"}

// genInputs builds a workload's inputs and expected answers from the seed.
// dir is where collection files go.
func genInputs(sp spec, seed int64, dir string) (*inputs, error) {
	in := &inputs{sp: sp, seed: seed, sizes: map[string]any{}}
	rng := rand.New(rand.NewSource(seed))
	switch sp.name {
	case "hospital_read":
		return in, in.genHospital(rng)
	case "churn":
		return in, in.genChurn(rng)
	case "collection":
		return in, in.genCollection(rng, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", sp.name)
}

func (in *inputs) addContent(x string) {
	in.contents = append(in.contents, x)
	d, err := smoqe.ParseDocumentString(x)
	if err != nil {
		panic(err) // generated documents always parse
	}
	in.elements = append(in.elements, d.ComputeStats().Elements)
}

// namedQuery is a workload query: text plus whether it is posed on σ0.
type namedQuery struct {
	name   string
	text   string
	onView bool
}

// hospitalQueries is the Fig. 8/9 workload plus the paper's two σ0 view
// queries.
var hospitalQueries = []namedQuery{
	{"Ex1.1", hospital.QExample11, true},
	{"Ex4.1", hospital.QExample41, true},
	{"XP-A", hospital.XPA, false},
	{"XP-B", hospital.XPB, false},
	{"XP-C", hospital.XPC, false},
	{"RX-A", hospital.RXA, false},
	{"RX-B", hospital.RXB, false},
	{"RX-C", hospital.RXC, false},
}

// hospitalWeights is the read mix of hospital_read, in 57ths of the mix
// per (query, engine) class, ordered as hospitalQueries × engines. Every
// class is in the mix; the weight sits on XP-C, whose three engines lie in
// the middle of the latency order, so the median falls inside that query
// rather than on the gap between two; the five slowest classes hold a
// seventh of the mix, so the ≈p90 tail falls inside them.
var hospitalWeights = [][3]int{
	{2, 2, 2}, // Ex1.1: among the slowest
	{2, 2, 2}, // Ex4.1: the slowest
	{3, 3, 3}, // XP-A: fast
	{3, 3, 3}, // XP-B: fast
	{6, 6, 6}, // XP-C: the median class
	{1, 1, 1}, // RX-A: slow
	{1, 1, 1}, // RX-B: slow
	{1, 1, 1}, // RX-C: slow
}

func (in *inputs) genHospital(rng *rand.Rand) error {
	cfg := datagen.DefaultConfig(scaled(2000, in.sp.scale))
	cfg.Seed = rng.Int63()
	in.addContent(hospitalXML(cfg))
	in.slots = []docSlot{{name: "hospital", cycle: []int{0}}}
	o, err := newOracle(in.contents[:1], true)
	if err != nil {
		return err
	}
	for qi, nq := range hospitalQueries {
		q, err := smoqe.ParseQuery(nq.text)
		if err != nil {
			return err
		}
		want := o.answer(0, q, nq.onView)
		for ei, eng := range engines {
			op := readOp{class: nq.name + "/" + eng, doc: "hospital", query: nq.text, engine: eng, want: [][]int{want}}
			if nq.onView {
				op.view = viewName
			}
			in.reads = append(in.reads, op)
			in.weights = append(in.weights, hospitalWeights[qi][ei])
		}
	}
	in.sizes["patients"] = cfg.Patients
	in.sizes["xml_bytes"] = len(in.contents[0])
	in.sizes["elements"] = in.elements[0]
	return nil
}

// Churn sizes: documents, patients per document, distinct contents the
// documents cycle through, and the query pool.
const (
	churnDocs     = 8
	churnPatients = 100
	churnContents = 2
	churnPool     = 4000
)

// churnTexts are the text constants qgen draws from: values that occur in
// generated documents, plus one that never does.
var churnTexts = []string{"heart disease", "flu", "diabetes", "ecg", "statin", "no such value"}

func (in *inputs) genChurn(rng *rand.Rand) error {
	for c := 0; c < churnContents; c++ {
		cfg := datagen.DefaultConfig(scaled(churnPatients, in.sp.scale))
		cfg.Seed = rng.Int63()
		in.addContent(hospitalXML(cfg))
	}
	for i := 0; i < churnDocs; i++ {
		in.slots = append(in.slots, docSlot{name: fmt.Sprintf("doc%d", i), cycle: []int{i % churnContents, (i + 1) % churnContents}})
		in.writeSlots = append(in.writeSlots, i)
	}
	o, err := newOracle(in.contents, true)
	if err != nil {
		return err
	}
	viewGen := qgen.New(hospital.ViewDTD(), rng.Int63(), churnTexts)
	srcGen := qgen.New(hospital.DocDTD(), rng.Int63(), churnTexts)
	pool := scaled(churnPool, in.sp.scale)
	sigma := hospital.Sigma0()
	for len(in.reads) < pool {
		onView := len(in.reads)%2 == 0
		g := srcGen
		if onView {
			g = viewGen
		}
		text := g.QueryString()
		// Only queries the server accepts enter the pool, so no read fails
		// for a reason of its own.
		var perr error
		if onView {
			_, perr = smoqe.PrepareStringOnView(sigma, text)
		} else {
			_, perr = smoqe.PrepareString(text)
		}
		if perr != nil {
			continue
		}
		q, err := smoqe.ParseQuery(text)
		if err != nil {
			continue
		}
		op := readOp{
			class:  "pool",
			doc:    in.slots[rng.Intn(churnDocs)].name,
			query:  text,
			engine: engines[len(in.reads)%len(engines)],
		}
		if onView {
			op.view = viewName
			op.class = "pool-view"
		}
		for c := range in.contents {
			op.want = append(op.want, o.answer(c, q, onView))
		}
		in.reads = append(in.reads, op)
	}
	in.sizes["docs"] = churnDocs
	in.sizes["patients_per_doc"] = scaled(churnPatients, in.sp.scale)
	in.sizes["contents"] = churnContents
	in.sizes["pool"] = pool
	in.sizes["xml_bytes"] = len(in.contents[0])
	return nil
}

// Collection sizes.
const (
	collDocs     = 40
	collPatients = 250
)

// collectionQueries is the collection mix: σ0 Example 1.1, RX-C, XP-B and
// a view query for addresses, which σ0 hides: its rewriting has no
// reachable final state, so the prefilter skips every document.
var collectionQueries = []namedQuery{
	{"Ex1.1", hospital.QExample11, true},
	{"RX-C", hospital.RXC, false},
	{"XP-B", hospital.XPB, false},
	{"hidden", "(patient/parent)*/patient/address", true},
}

// collectionWeights puts the median inside RX-C: it is 60% of the mix,
// with 20% faster (the skipped query and XP-B) and 20% slower (Example
// 1.1). A request's latency varies about twofold within each class, so a
// thinner middle class would let the overlapping classes set the median.
var collectionWeights = []int{2, 6, 1, 1} // Ex1.1, RX-C, XP-B, hidden

func (in *inputs) genCollection(rng *rand.Rand, dir string) error {
	n := scaled(collDocs, in.sp.scale)
	in.corpusDir = dir
	cdir := filepath.Join(dir, collName)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return err
	}
	var names []string
	for i := 0; i < n; i++ {
		cfg := datagen.DefaultConfig(scaled(collPatients, in.sp.scale))
		cfg.Seed = rng.Int63()
		// A fifth of the documents carry no heart-disease text; the rest
		// cycle through four fixed rates, so the seed changes the content
		// but not how selective the heart-disease queries are.
		cfg.HeartFrac = []float64{0.06, 0.10, 0.14, 0.18, 0}[i%5]
		x := hospitalXML(cfg)
		name := fmt.Sprintf("doc%02d.xml", i)
		if err := os.WriteFile(filepath.Join(cdir, name), []byte(x), 0o644); err != nil {
			return err
		}
		names = append(names, name)
		in.corpusXML = append(in.corpusXML, x)
	}
	o, err := newOracle(in.corpusXML, true)
	if err != nil {
		return err
	}
	for _, nq := range collectionQueries {
		q, err := smoqe.ParseQuery(nq.text)
		if err != nil {
			return err
		}
		op := readOp{class: nq.name, query: nq.text, coll: true, wantColl: []collResult{}}
		if nq.onView {
			op.view = viewName
		}
		for i, name := range names {
			ids := o.answer(i, q, nq.onView)
			if len(ids) > 0 {
				op.wantColl = append(op.wantColl, collResult{Doc: name, Count: len(ids), IDs: ids})
				op.wantCount += len(ids)
			}
		}
		in.reads = append(in.reads, op)
	}
	in.weights = collectionWeights
	in.sizes["docs"] = n
	in.sizes["patients_per_doc"] = scaled(collPatients, in.sp.scale)
	total := 0
	for _, x := range in.corpusXML {
		total += len(x)
	}
	in.sizes["xml_bytes"] = total
	return nil
}

// readSequence returns the order in which a phase draws read classes.
// Weighted mixes repeat seeded shuffles of one block holding every class
// its weight's number of times, so each block-sized window has the exact
// mix; the churn pool draws uniformly.
func (in *inputs) readSequence(rng *rand.Rand, n int) []int {
	seq := make([]int, 0, n)
	if in.weights == nil {
		for len(seq) < n {
			seq = append(seq, rng.Intn(len(in.reads)))
		}
		return seq
	}
	var block []int
	for i, w := range in.weights {
		for k := 0; k < w; k++ {
			block = append(block, i)
		}
	}
	for len(seq) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	return seq[:n]
}
