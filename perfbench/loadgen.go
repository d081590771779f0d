package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/serve"
)

// The serve load shape, the same on every workload. Load comes from this
// process over two client connections, one for ingestion and one for
// queries, both open loop: every request has a due time and is timed from
// it, so a stall also charges the requests queued behind it.
const (
	batchTx        = 100    // transactions per /ingest request
	preload        = 20_000 // prefix loaded and published during set-up
	ingestRate     = 200    // /ingest requests per second
	queryRate      = 400    // queries per second
	rulesLimit     = 20
	itemsetsLimit  = 50
	publishTimeout = 120 * time.Second
)

// serveProcs is the server's re-mine worker count. The pipeline mines with
// procs workers; the server keeps one of the two Ps for its handlers and
// this process's load generator. With both Ps mining, a request that
// arrives during a re-mine waits for the Go scheduler to preempt a worker,
// so the latency p50s rest on the share of time spent re-mining, which
// moves with the host's speed between runs of the same code.
const serveProcs = procs - 1

type reqKind int

const (
	kindIngest reqKind = iota
	kindRules
	kindItemsets
)

// request is one scheduled HTTP call.
type request struct {
	at   time.Duration // due time, from the start of the phase
	kind reqKind
	path string
	body []byte    // /ingest only
	txs  [][]int64 // /ingest only: the batch, for the traced ValidateBatch replay
	item int64     // /rules only
}

// outcome is what one request saw. direct is the time of the traced replay
// of the same call made straight into the serve layer.
type outcome struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
	direct          time.Duration
}

// ingestRequests splits transactions [lo, hi) of d into /ingest batches of
// batchTx transactions, due at ingestRate per second.
func ingestRequests(d *db.Database, lo, hi int) ([]request, error) {
	var out []request
	for i := lo; i < hi; i += batchTx {
		end := min(i+batchTx, hi)
		txs := make([][]int64, 0, end-i)
		for t := i; t < end; t++ {
			items := d.Items(t)
			tx := make([]int64, len(items))
			for j, it := range items {
				tx[j] = int64(it)
			}
			txs = append(txs, tx)
		}
		body, err := json.Marshal(map[string][][]int64{"transactions": txs})
		if err != nil {
			return nil, fmt.Errorf("encode ingest batch: %w", err)
		}
		out = append(out, request{
			at:   time.Duration(len(out)) * time.Second / ingestRate,
			kind: kindIngest, path: "/ingest", body: body, txs: txs,
		})
	}
	return out, nil
}

// itemsByFrequency ranks the items of d by descending occurrence count
// (ties by id): rank r is the Zipf query mix's r-th most popular item.
func itemsByFrequency(d *db.Database) []int64 {
	counts := map[itemset.Item]int{}
	for i := 0; i < d.Len(); i++ {
		for _, it := range d.Items(i) {
			counts[it]++
		}
	}
	out := make([]int64, 0, len(counts))
	for it := range counts {
		out = append(out, int64(it))
	}
	sort.Slice(out, func(a, b int) bool {
		ca, cb := counts[itemset.Item(out[a])], counts[itemset.Item(out[b])]
		if ca != cb {
			return ca > cb
		}
		return out[a] < out[b]
	})
	return out
}

// queryMix schedules n queries at queryRate per second: three in four ask
// /rules for a Zipf(1.1)-popular item, one in four asks /itemsets for
// frequent pairs. The sequence depends only on seed and items.
func queryMix(seed int64, n int, items []int64) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(items)-1))
	out := make([]request, n)
	for j := range out {
		r := request{at: time.Duration(j) * time.Second / queryRate}
		if rng.Intn(4) < 3 {
			r.kind = kindRules
			r.item = items[zipf.Uint64()]
			r.path = fmt.Sprintf("/rules?item=%d&limit=%d", r.item, rulesLimit)
		} else {
			r.kind = kindItemsets
			r.path = fmt.Sprintf("/itemsets?k=2&limit=%d", itemsetsLimit)
		}
		out[j] = r
	}
	return out
}

// harness runs an armined server in-process on a loopback port.
type harness struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	served chan error

	ingest, query *http.Client

	cancel context.CancelFunc // set once the re-mine loop runs
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

func startHarness() (*harness, error) {
	srv := serve.New(serve.Config{
		Support: support, MinConfidence: minConf, Procs: serveProcs, Engine: "auto",
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		ingest: newClient(), query: newClient(),
	}
	go func() { h.served <- h.http.Serve(ln) }()
	return h, nil
}

// startLoop runs the server's re-mine loop until stop.
func (h *harness) startLoop() {
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go h.srv.Run(ctx)
}

// stop ends the re-mine loop and the HTTP server and waits for both.
func (h *harness) stop() error {
	if h.cancel != nil {
		h.cancel()
		h.srv.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.ingest.CloseIdleConnections()
	h.query.CloseIdleConnections()
	return err
}

func (h *harness) do(c *http.Client, r *request) (int, []byte, error) {
	var (
		resp *http.Response
		err  error
	)
	if r.kind == kindIngest {
		resp, err = c.Post(h.base+r.path, "application/json", bytes.NewReader(r.body))
	} else {
		resp, err = c.Get(h.base + r.path)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

var spanNames = [...]string{kindIngest: "http.POST /ingest", kindRules: "http.GET /rules", kindItemsets: "http.GET /itemsets"}

// openLoop sends reqs over c, each at start + its due time or as soon as
// the connection is free. With a tracer, each request is a root span of its
// own trace, and the same call is then replayed straight into the serve
// layer as its child span.
func (h *harness) openLoop(c *http.Client, reqs []request, start time.Time, tr *tracer) []outcome {
	out := make([]outcome, len(reqs))
	for i := range reqs {
		r, o := &reqs[i], &out[i]
		o.due = start.Add(r.at)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		trace := tr.newTrace()
		sp := tr.begin(trace, nil, spanNames[r.kind])
		o.sent = time.Now()
		o.status, o.body, o.err = h.do(c, r)
		o.done = time.Now()
		tr.finish(sp, map[string]any{"status": o.status})
		if tr != nil {
			o.direct = h.replay(r, tr, trace, sp)
		}
	}
	return out
}

// replay makes the serve-layer call behind r directly and times it.
func (h *harness) replay(r *request, tr *tracer, trace int64, parent *span) time.Duration {
	var (
		name string
		call func()
	)
	switch r.kind {
	case kindIngest:
		name = "serve.ValidateBatch"
		call = func() { _, _ = h.srv.ValidateBatch(r.txs) } // validity is checked on the HTTP reply
	case kindRules:
		snap := h.srv.Published()
		name = "serve.Snapshot.QueryRules"
		call = func() { snap.QueryRules(minConf, r.item, rulesLimit) }
	case kindItemsets:
		snap := h.srv.Published()
		name = "serve.Snapshot.QueryItemsets"
		call = func() { snap.QueryItemsets(2, itemsetsLimit) }
	}
	sp := tr.begin(trace, parent, name)
	t0 := time.Now()
	call()
	d := time.Since(t0)
	tr.finish(sp, nil)
	return d
}

// watcher records every snapshot the server publishes. Generations are at
// least the 100 ms re-mine debounce apart, so a 10 ms poll sees each of
// them; publish times come from Snapshot.MinedAt, not from the poll.
type watcher struct {
	stop, done chan struct{}
	snaps      []*serve.Snapshot // owned by the goroutine until done closes
}

func watch(srv *serve.Server) *watcher {
	w := &watcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		poll := func() {
			s := srv.Published()
			if s != nil && (len(w.snaps) == 0 || w.snaps[len(w.snaps)-1] != s) {
				w.snaps = append(w.snaps, s)
			}
		}
		for {
			poll()
			select {
			case <-w.stop:
				poll()
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// halt stops the watcher and returns the snapshots in publish order.
func (w *watcher) halt() []*serve.Snapshot {
	close(w.stop)
	<-w.done
	return w.snaps
}

// waitCovered polls until a published snapshot covers n transactions.
func waitCovered(srv *serve.Server, n int64) (*serve.Snapshot, error) {
	deadline := time.Now().Add(publishTimeout)
	for {
		if s := srv.Published(); s != nil && s.DBLen >= n {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no snapshot covered %d transactions within %v", n, publishTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// ack is an acknowledged ingest batch: the transaction count it brought
// the server to, and when the acknowledgement arrived.
type ack struct {
	covers int64
	at     time.Time
}

// publish is one snapshot: the prefix it covers and when it was published.
type publish struct {
	dbLen int64
	at    time.Time
}

// visibleLatencies pairs each ack with the first publish, in publish order,
// whose prefix covers it, and returns ack→publish in milliseconds. A
// snapshot published before the ack arrived counts as 0. Acks that no
// publish covers are counted in unmatched.
func visibleLatencies(acks []ack, pubs []publish) (lat []float64, unmatched int) {
	for _, a := range acks {
		i := sort.Search(len(pubs), func(i int) bool { return pubs[i].dbLen >= a.covers })
		if i == len(pubs) {
			unmatched++
			continue
		}
		lat = append(lat, max(0, millis(pubs[i].at.Sub(a.at))))
	}
	return lat, unmatched
}

func publishes(snaps []*serve.Snapshot) []publish {
	out := make([]publish, len(snaps))
	for i, s := range snaps {
		out[i] = publish{dbLen: s.DBLen, at: s.MinedAt}
	}
	return out
}

type ingestReply struct {
	Accepted int   `json:"accepted"`
	Total    int64 `json:"total"`
}

// checkIngest verifies each /ingest reply (202, whole batch accepted, the
// running total as expected) and returns the acks of the verified ones.
func (b *bench) checkIngest(reqs []request, outs []outcome, before int64) []ack {
	var acks []ack
	total := before
	for i := range outs {
		o := &outs[i]
		total += int64(len(reqs[i].txs))
		var rep ingestReply
		ok := o.err == nil && o.status == http.StatusAccepted && json.Unmarshal(o.body, &rep) == nil &&
			rep.Accepted == len(reqs[i].txs) && rep.Total == total
		b.check(ok, "ingest batch %d: status %d err %v body %.200s", i, o.status, o.err, o.body)
		if ok {
			acks = append(acks, ack{covers: rep.Total, at: o.done})
		}
	}
	return acks
}

type wireRule struct {
	Antecedent, Consequent        []int64
	Support                       int64
	SupportFrac, Confidence, Lift float64
}

type wireItemset struct {
	Items []int64
	Count int64
}

type wireQuery struct {
	Generation int64
	Count      int
	Rules      []wireRule
	Itemsets   []wireItemset
}

// checkQueries verifies each query reply against the same query made
// directly on the snapshot generation that served it.
func (b *bench) checkQueries(reqs []request, outs []outcome, snaps []*serve.Snapshot) {
	byGen := map[int64]*serve.Snapshot{}
	for _, s := range snaps {
		byGen[s.Generation] = s
	}
	for i := range outs {
		err := verifyQuery(&reqs[i], &outs[i], byGen)
		b.check(err == nil, "query %d (%s): %v", i, reqs[i].path, err)
	}
}

func verifyQuery(r *request, o *outcome, byGen map[int64]*serve.Snapshot) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	var got wireQuery
	if err := json.Unmarshal(o.body, &got); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	snap := byGen[got.Generation]
	if snap == nil {
		return fmt.Errorf("reply from unrecorded generation %d", got.Generation)
	}
	if r.kind == kindRules {
		want := snap.QueryRules(minConf, r.item, rulesLimit)
		if got.Count != len(want) || len(got.Rules) != len(want) {
			return fmt.Errorf("generation %d: %d rules, want %d", got.Generation, len(got.Rules), len(want))
		}
		for j, w := range want {
			g := got.Rules[j]
			if !sameItems(g.Antecedent, w.Antecedent) || !sameItems(g.Consequent, w.Consequent) ||
				g.Support != w.Support || g.SupportFrac != w.SupportFrac ||
				g.Confidence != w.Confidence || g.Lift != w.Lift {
				return fmt.Errorf("generation %d: rule %d is %+v, want %v", got.Generation, j, g, w)
			}
		}
		return nil
	}
	want := snap.QueryItemsets(2, itemsetsLimit)
	if got.Count != len(want) || len(got.Itemsets) != len(want) {
		return fmt.Errorf("generation %d: %d itemsets, want %d", got.Generation, len(got.Itemsets), len(want))
	}
	for j, w := range want {
		if !sameItems(got.Itemsets[j].Items, w.Items) || got.Itemsets[j].Count != w.Count {
			return fmt.Errorf("generation %d: itemset %d is %+v, want %v", got.Generation, j, got.Itemsets[j], w)
		}
	}
	return nil
}

func sameItems(got []int64, want itemset.Itemset) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != int64(want[i]) {
			return false
		}
	}
	return true
}

// serveFigures pools the serve-side samples of a run.
type serveFigures struct {
	// Untraced rounds: the end-to-end samples, in milliseconds, each
	// request timed from its due time.
	query, ingest, visible []float64
	// Traced rounds.
	tracedQuery             []float64 // ms, from the due time
	httpQuery               []float64 // ms, from the send time
	late                    []float64 // ms, send time minus due time
	validate                []float64 // µs, direct ValidateBatch
	directRules, directSets []float64 // µs, direct Snapshot.Query*
	mineWall                []float64 // s, Snapshot.Wall per generation
	generations, minedRatio []float64 // per round
}

// addPhase pools one phase's outcomes: into the end-to-end samples when
// untraced, into the layer samples when traced.
func (f *serveFigures) addPhase(reqs []request, outs []outcome, traced bool) {
	for i := range outs {
		o := &outs[i]
		lat := millis(o.done.Sub(o.due))
		if !traced {
			if reqs[i].kind == kindIngest {
				f.ingest = append(f.ingest, lat)
			} else {
				f.query = append(f.query, lat)
			}
			continue
		}
		f.late = append(f.late, millis(o.sent.Sub(o.due)))
		switch reqs[i].kind {
		case kindIngest:
			f.validate = append(f.validate, micros(o.direct))
		case kindRules:
			f.directRules = append(f.directRules, micros(o.direct))
		case kindItemsets:
			f.directSets = append(f.directSets, micros(o.direct))
		}
		if reqs[i].kind != kindIngest {
			f.tracedQuery = append(f.tracedQuery, lat)
			f.httpQuery = append(f.httpQuery, millis(o.done.Sub(o.sent)))
		}
	}
}

// addGenerations records the snapshots one server published.
func (f *serveFigures) addGenerations(snaps []*serve.Snapshot) {
	var mined int64
	for _, s := range snaps {
		f.mineWall = append(f.mineWall, s.Wall.Seconds())
		mined += s.DBLen
	}
	f.generations = append(f.generations, float64(len(snaps)))
	f.minedRatio = append(f.minedRatio, float64(mined)/float64(snaps[len(snaps)-1].DBLen))
}

func (f *serveFigures) report(b *bench) error {
	if !b.traced {
		for _, m := range []struct {
			name string
			xs   []float64
			q    float64
		}{
			{"query_p50_ms", f.query, 0.5}, {"query_p99_ms", f.query, 0.99},
			{"ingest_p50_ms", f.ingest, 0.5}, {"ingest_p99_ms", f.ingest, 0.99},
			{"visible_p50_ms", f.visible, 0.5}, {"visible_p99_ms", f.visible, 0.99},
		} {
			v, ok := percentile(m.xs, m.q)
			if !ok {
				return fmt.Errorf("%s: %d samples leave fewer than %d beyond it", m.name, len(m.xs), minBeyond)
			}
			b.set(m.name, v)
		}
		return nil
	}
	late, ok := percentile(f.late, 0.99)
	if !ok {
		return fmt.Errorf("loadgen.late_p99_ms: %d samples leave fewer than %d beyond it", len(f.late), minBeyond)
	}
	b.set("loadgen.late_p99_ms", late)
	traced, _ := percentile(f.tracedQuery, 0.5)
	plain, _ := percentile(f.query, 0.5)
	b.set("trace.query_p50_overhead_ms", traced-plain)
	b.set("serve.validate_us", median(f.validate))
	b.set("serve.query_rules_us", median(f.directRules))
	b.set("serve.query_itemsets_us", median(f.directSets))
	direct := append(append([]float64(nil), f.directRules...), f.directSets...)
	b.set("serve.http_overhead_ms", median(f.httpQuery)-median(direct)/1000)
	b.set("serve.snapshot_mine_s", median(f.mineWall))
	b.set("serve.generations", median(f.generations))
	b.set("serve.mined_tx_ratio", median(f.minedRatio))
	return nil
}

// snapshotDigest is the digest pair of a published snapshot.
func snapshotDigest(s *serve.Snapshot) outputDigest {
	return outputDigest{Itemsets: itemsetDigest(s.Result), Rules: rulesDigest(s.Rules)}
}

// traceGenerations adds one span per published generation, as the server
// reports it (the mine and rule generation ending at MinedAt).
func traceGenerations(tr *tracer, snaps []*serve.Snapshot) {
	for _, s := range snaps {
		tr.record(tr.newTrace(), "serve.snapshot", s.MinedAt.Add(-s.Wall), s.MinedAt, map[string]any{
			"generation": s.Generation, "db_len": s.DBLen, "engine": s.Engine, "rules": len(s.Rules),
		})
	}
}

// minRounds is the fewest serve rounds a run pools: a round gives 800 ingest
// samples, fewer than a p99 needs, and its tail rests on a handful of
// re-mine stalls.
const minRounds = 3

// serveRounds runs serve rounds until budget is spent (at least minRounds).
// Traced runs alternate untraced and traced rounds.
func (b *bench) serveRounds(budget time.Duration) (f serveFigures, finals []outputDigest, setups []float64, last round, err error) {
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		var tr *tracer
		if b.traced && i%2 == 1 {
			tr = b.tr
		}
		if last, err = b.serveRound(&f, tr); err != nil {
			return
		}
		fmt.Fprintf(b.log, "serve round %d: set-up %.3f s, %d generations, query p50 %.1f p99 %.1f ms, ingest p50 %.1f ms (traced=%v)\n",
			i, last.setup.Seconds(), last.generations, last.queryP50, last.queryP99, last.ingestP50, tr != nil)
		setups = append(setups, last.setup.Seconds())
		finals = append(finals, last.final)
	}
	return
}

// round is what one serve round leaves for the rest of the run: its set-up
// time, the stream with the digest of the snapshot covering all of it, and
// the file the pipeline reads the workload's database from.
type round struct {
	setup                         time.Duration
	generations                   int
	queryP50, queryP99, ingestP50 float64 // ms, for the log
	stream                        *db.Database
	final                         outputDigest
	path                          string
}

// serveRound is one pass of the stream through armined. Its set-up
// generates the workload's database and writes it for the pipeline,
// generates the stream, starts a server with its re-mine loop, pre-loads the
// stream's first preload transactions and waits for their publish. Then the
// rest arrives over /ingest at ingestRate while queries run at queryRate,
// both open loop, and the round ends when a snapshot covers the whole
// stream.
func (b *bench) serveRound(f *serveFigures, tr *tracer) (round, error) {
	t0 := time.Now()
	d, err := b.generate(b.w.data)
	if err != nil {
		return round{}, err
	}
	path := filepath.Join(b.tmp, b.w.name+".ardb")
	if err := d.WriteFile(path); err != nil {
		return round{}, err
	}
	stream := d
	if b.w.data != streamData {
		if stream, err = b.generate(streamData); err != nil {
			return round{}, err
		}
	}
	h, err := startHarness()
	if err != nil {
		return round{}, err
	}
	h.startLoop()
	w := watch(h.srv)
	fail := func(err error) (round, error) {
		w.halt()
		return round{}, errors.Join(err, h.stop())
	}
	// One batch, so the first re-mine covers the whole prefix: loaded in
	// parts, a re-mine could start on a small prefix, where 0.25% support
	// is a handful of transactions and mining takes longer than on all
	// 20K, and set-up would time whichever way the race went.
	batch := make([]itemset.Itemset, 0, preload)
	for i := 0; i < preload; i++ {
		batch = append(batch, stream.Items(i))
	}
	if _, err := h.srv.Ingest(batch); err != nil {
		return fail(fmt.Errorf("pre-load: %w", err))
	}
	if _, err := waitCovered(h.srv, preload); err != nil {
		return fail(err)
	}
	setup := time.Since(t0)

	ingest, err := ingestRequests(stream, preload, stream.Len())
	if err != nil {
		return fail(err)
	}
	span := time.Duration(len(ingest)) * time.Second / ingestRate
	queries := queryMix(b.seed, int(span*queryRate/time.Second), itemsByFrequency(stream))
	runtime.GC() // set-up's garbage is not the round's to collect
	var iouts, qouts []outcome
	var wg sync.WaitGroup
	wg.Add(2)
	begin := time.Now()
	go func() { defer wg.Done(); iouts = h.openLoop(h.ingest, ingest, begin, tr) }()
	go func() { defer wg.Done(); qouts = h.openLoop(h.query, queries, begin, tr) }()
	wg.Wait()
	final, err := waitCovered(h.srv, int64(stream.Len()))
	if err != nil {
		return fail(err)
	}
	snaps := w.halt()
	if err := h.stop(); err != nil {
		return round{}, fmt.Errorf("stop server: %w", err)
	}

	traced := tr != nil
	f.addPhase(ingest, iouts, traced)
	f.addPhase(queries, qouts, traced)
	acks := b.checkIngest(ingest, iouts, preload)
	vis, unmatched := visibleLatencies(acks, publishes(snaps))
	b.check(unmatched == 0, "%d ingest batches never became visible", unmatched)
	b.checkQueries(queries, qouts, snaps)
	if traced {
		f.addGenerations(snaps)
		traceGenerations(tr, snaps)
	} else {
		f.visible = append(f.visible, vis...)
	}
	return round{
		setup: setup, generations: len(snaps), stream: stream, final: snapshotDigest(final), path: path,
		queryP50: fromDue(qouts, 0.5), queryP99: fromDue(qouts, 0.99), ingestP50: fromDue(iouts, 0.5),
	}, nil
}

func fromDue(outs []outcome, q float64) float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = millis(outs[i].done.Sub(outs[i].due))
	}
	v, _ := percentile(xs, q)
	return v
}
