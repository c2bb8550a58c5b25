package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request: a read of class read, or a write replacing
// the document in slot. at is the intended send time from the phase start.
type op struct {
	at    time.Duration
	write bool
	read  int
	slot  int
}

// sample is one completed (or failed) request. Latency runs from the
// intended send time, so a stalled request also charges the wait it
// imposed on the requests queued behind it.
type sample struct {
	write bool
	read  int
	ok    bool
	lat   time.Duration // completion − intended send time
	lag   time.Duration // actual send − intended send time
	rt    time.Duration // completion − actual send (the HTTP round trip)
	start time.Time     // actual send
	done  time.Duration // completion, from the phase start
	// traceID is the server trace of a traced read.
	traceID string
	// skipped/indexed are a collection response's prefilter counts.
	skipped, indexed int
}

// schedule lays out an open-loop phase: reads at rate for dur, writes at
// the spec's write rate interleaved half a period out of step, then sorted
// by send time. The read classes come from the mix sequence, so the
// schedule depends only on the seed and the rates.
func (b *bench) schedule(rng *rand.Rand, rate float64, dur time.Duration) []op {
	in := b.in
	nr := int(rate * dur.Seconds())
	seq := in.readSequence(rng, nr)
	ops := make([]op, 0, nr+8)
	for i := 0; i < nr; i++ {
		ops = append(ops, op{at: time.Duration(float64(i) / rate * float64(time.Second)), read: seq[i]})
	}
	if w := b.in.sp.writeRate; w > 0 && len(in.writeSlots) > 0 {
		nw := int(w * dur.Seconds())
		for j := 0; j < nw; j++ {
			slot := in.writeSlots[j%len(in.writeSlots)]
			ops = append(ops, op{
				at:    time.Duration((float64(j) + 0.5) / w * float64(time.Second)),
				write: true,
				slot:  slot,
			})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// runPhase executes ops on at most conns connections: each worker takes
// the next op in schedule order, waits for its send time if early, and
// sends it; a late worker sends at once (the backlog shows up as latency).
// Ops not yet sent when the schedule overruns its end by more than grace
// are abandoned and their samples marked not ok; with countAbandoned set
// each one is also attempted and failed, so the run is not correct.
func (b *bench) runPhase(ops []op, grace time.Duration, countAbandoned bool) []sample {
	out := make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	deadline := start
	if len(ops) > 0 {
		deadline = start.Add(ops[len(ops)-1].at + grace)
	}
	var wg sync.WaitGroup
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if sent.After(deadline) {
					out[i] = sample{write: o.write, read: o.read, lat: sent.Sub(due), lag: sent.Sub(due)}
					if countAbandoned {
						b.attempted.Add(1)
						b.fail(fmt.Sprintf("op %d abandoned %v after its send time", i, sent.Sub(due).Round(time.Millisecond)))
					}
					continue
				}
				s := b.do(o)
				done := time.Now()
				s.lat, s.lag, s.rt, s.start, s.done = done.Sub(due), sent.Sub(due), done.Sub(sent), sent, done.Sub(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// do sends one op and checks its answer.
func (b *bench) do(o op) sample {
	b.attempted.Add(1)
	if o.write {
		return b.doWrite(o)
	}
	r := &b.in.reads[o.read]
	s := sample{read: o.read}
	if r.coll {
		s.traceID, s.ok, s.skipped, s.indexed = b.doCollection(r)
		return s
	}
	snap := b.docs.snapshot(r.doc)
	body := r.body
	if b.traceReads {
		body = r.tracedBody
	}
	var resp struct {
		Count int   `json:"count"`
		IDs   []int `json:"ids"`
	}
	traceID, err := b.post("/query", body, http.StatusOK, &resp)
	if err != nil {
		b.fail(fmt.Sprintf("read %s %q: %v", r.class, r.query, err))
		return s
	}
	s.traceID = traceID
	for _, c := range b.docs.acceptable(r.doc, snap) {
		if equalIDs(resp.IDs, r.want[c]) && resp.Count == len(r.want[c]) {
			s.ok = true
			return s
		}
	}
	b.fail(fmt.Sprintf("read %s %q on %s: wrong answer (%d ids)", r.class, r.query, r.doc, len(resp.IDs)))
	return s
}

func (b *bench) doWrite(o op) sample {
	s := sample{write: true}
	slot := b.in.slots[o.slot]
	content := b.docs.beginWrite(slot.name)
	var resp struct {
		Name     string `json:"name"`
		Elements int    `json:"elements"`
	}
	_, err := b.post("/docs", b.docBody(slot.name, content), http.StatusCreated, &resp)
	b.docs.endWrite(slot.name, content, err == nil)
	switch {
	case err != nil:
		b.fail(fmt.Sprintf("write %s: %v", slot.name, err))
	case resp.Name != slot.name || resp.Elements != b.in.elements[content]:
		b.fail(fmt.Sprintf("write %s: registered %q with %d elements, want %d", slot.name, resp.Name, resp.Elements, b.in.elements[content]))
	default:
		s.ok = true
	}
	return s
}

// doCollection sends one fan-out query and checks the streamed results.
func (b *bench) doCollection(r *readOp) (traceID string, ok bool, skipped, indexed int) {
	var resp struct {
		Results []collResult `json:"results"`
		Count   int          `json:"count"`
		Error   string       `json:"error"`
		Skipped int          `json:"docs_skipped_prefilter"`
		Indexed int          `json:"docs_indexed"`
	}
	traceID, err := b.post("/collections/"+collName+"/query", r.body, http.StatusOK, &resp)
	if err != nil {
		b.fail(fmt.Sprintf("collection %s: %v", r.class, err))
		return traceID, false, 0, 0
	}
	if resp.Error != "" || resp.Count != r.wantCount || !reflect.DeepEqual(resp.Results, r.wantColl) {
		b.fail(fmt.Sprintf("collection %s: wrong answer (count %d, want %d; error %q)", r.class, resp.Count, r.wantCount, resp.Error))
		return traceID, false, resp.Skipped, resp.Indexed
	}
	return traceID, true, resp.Skipped, resp.Indexed
}

// post sends a JSON body and decodes the response, which must carry the
// given status. It returns the request's server trace ID.
func (b *bench) post(path string, body []byte, status int, v any) (string, error) {
	resp, err := b.client.Post(b.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	raw, err := drain(resp)
	if err != nil {
		return "", err
	}
	traceID := resp.Header.Get("X-Smoqe-Trace-Id")
	if resp.StatusCode != status {
		return traceID, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return traceID, json.Unmarshal(raw, v)
}

// drain reads and closes a response body.
func drain(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// docState tracks which content each document name holds, so a read that
// overlapped a write to its document accepts the answer of either content.
type docState struct {
	mu sync.Mutex
	m  map[string]*slotState // guarded by mu
}

type slotState struct {
	cycle   []int // contents the slot's writes cycle through
	cur     int   // content the server holds
	pending int   // content being written, or -1
	seq     int   // completed writes
}

// docSnap is a slot's state when a read was sent.
type docSnap struct {
	cur, pending int
}

func newDocState(slots []docSlot) *docState {
	m := make(map[string]*slotState, len(slots))
	for _, s := range slots {
		m[s.name] = &slotState{cycle: s.cycle, cur: s.cycle[0], pending: -1}
	}
	return &docState{m: m}
}

func (ds *docState) snapshot(name string) docSnap {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st := ds.m[name]
	return docSnap{st.cur, st.pending}
}

// acceptable lists the contents a read sent at snap may have seen.
func (ds *docState) acceptable(name string, snap docSnap) []int {
	ds.mu.Lock()
	st := *ds.m[name]
	ds.mu.Unlock()
	out := []int{snap.cur}
	for _, c := range []int{snap.pending, st.cur, st.pending} {
		if c >= 0 && c != out[0] {
			out = append(out, c)
		}
	}
	return out
}

// beginWrite picks the slot's next content in its cycle and marks it
// pending.
func (ds *docState) beginWrite(name string) int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st := ds.m[name]
	c := st.cycle[(st.seq+1)%len(st.cycle)]
	st.pending = c
	return c
}

func (ds *docState) endWrite(name string, content int, ok bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st := ds.m[name]
	if ok {
		st.cur = content
		st.seq++
	}
	st.pending = -1
}
