package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/rules"
)

// testConfig is a small, fast daemon configuration shared by the tests.
func testConfig() Config {
	return Config{
		Support:        0.05,
		MinConfidence:  0.5,
		Procs:          2,
		RemineInterval: time.Millisecond,
	}
}

// genBatch renders a seeded Quest workload as the daemon's wire format.
func genBatch(t *testing.T, p gen.Params) ([][]int64, *db.Database) {
	t.Helper()
	d, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([][]int64, d.Len())
	for i := 0; i < d.Len(); i++ {
		items := d.Items(i)
		row := make([]int64, len(items))
		for j, it := range items {
			row[j] = int64(it)
		}
		txs[i] = row
	}
	return txs, d
}

// waitPublished polls until a snapshot covering want transactions appears.
func waitPublished(t *testing.T, s *Server, want int64) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if snap := s.Published(); snap != nil && snap.DBLen >= want {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no snapshot covering %d transactions published in time", want)
	return nil
}

// postJSON posts a value to the test server and decodes the response.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestPublishedSnapshotMatchesBatch is the service's exactness guarantee:
// the snapshot armined publishes after ingesting a workload must be
// bit-identical — same frequent itemsets, same counts, same rules in the
// same order — to a batch engine.Dispatch + rules.GenerateFast run over the
// same transactions with the same plan.
func TestPublishedSnapshotMatchesBatch(t *testing.T) {
	txs, _ := genBatch(t, gen.Params{T: 8, I: 4, D: 300, Seed: 21})

	s := New(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)

	batch, err := s.ValidateBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Ingest(batch); err != nil || n != len(txs) {
		t.Fatalf("Ingest = (%d, %v), want (%d, nil)", n, err, len(txs))
	}
	snap := waitPublished(t, s, int64(len(txs)))

	// Batch reference: the same transactions, the same TIDs, the daemon's
	// own plan for this exact view shape.
	ref := db.New(0)
	for i, set := range batch {
		ref.Append(int64(i), set)
	}
	name, spec := s.Plan(ref)
	if snap.Engine != name {
		t.Fatalf("snapshot engine %q != batch plan %q", snap.Engine, name)
	}
	res, _, err := engine.Dispatch(context.Background(), name, ref, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRules := rules.GenerateFast(res, rules.Options{
		MinConfidence: s.cfg.MinConfidence,
		DBSize:        int64(ref.Len()),
		MaxConsequent: s.cfg.MaxConsequent,
	})

	if !reflect.DeepEqual(snap.Result.ByK, res.ByK) {
		t.Error("published frequent itemsets differ from batch reference")
	}
	if snap.Result.MinCount != res.MinCount {
		t.Errorf("published MinCount %d != batch %d", snap.Result.MinCount, res.MinCount)
	}
	if len(snap.Rules) != len(wantRules) {
		t.Fatalf("published %d rules, batch reference %d", len(snap.Rules), len(wantRules))
	}
	for i := range wantRules {
		if !reflect.DeepEqual(snap.Rules[i], wantRules[i]) {
			t.Fatalf("rule %d differs:\n  published: %+v\n  batch:     %+v", i, snap.Rules[i], wantRules[i])
		}
	}
}

// TestIncrementalRemines ingests in waves and checks generations advance
// and each published snapshot covers a growing prefix.
func TestIncrementalRemines(t *testing.T) {
	txs, _ := genBatch(t, gen.Params{T: 6, I: 3, D: 300, Seed: 5})

	s := New(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)

	var lastGen int64
	total := 0
	for _, cut := range []int{100, 200, 300} {
		batch, err := s.ValidateBatch(txs[total:cut])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		total = cut
		snap := waitPublished(t, s, int64(total))
		if snap.Generation <= lastGen {
			t.Fatalf("generation did not advance: %d after %d", snap.Generation, lastGen)
		}
		if snap.DBLen < int64(total) {
			t.Fatalf("snapshot covers %d transactions, ingested %d", snap.DBLen, total)
		}
		lastGen = snap.Generation
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: ingest, query rules and
// itemsets with filters, scrape metrics, health.
func TestHTTPEndToEnd(t *testing.T) {
	txs, _ := genBatch(t, gen.Params{T: 8, I: 4, D: 200, Seed: 9})

	s := New(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ir ingestResponse
	if code := postJSON(t, ts.URL+"/ingest", map[string][][]int64{"transactions": txs}, &ir); code != http.StatusAccepted {
		t.Fatalf("ingest: HTTP %d", code)
	}
	if ir.Accepted != len(txs) {
		t.Fatalf("accepted %d, want %d", ir.Accepted, len(txs))
	}
	waitPublished(t, s, int64(len(txs)))

	var rr rulesResponse
	if code := getJSON(t, ts.URL+"/rules", &rr); code != http.StatusOK {
		t.Fatalf("/rules: HTTP %d", code)
	}
	if rr.Count != len(rr.Rules) {
		t.Fatalf("/rules count %d != len %d", rr.Count, len(rr.Rules))
	}
	for _, r := range rr.Rules {
		if !rules.MeetsConfidence(r.Confidence, s.cfg.MinConfidence) {
			t.Fatalf("rule below configured confidence: %+v", r)
		}
	}
	// Tightened confidence returns a prefix of the full list.
	var tight rulesResponse
	getJSON(t, ts.URL+"/rules?minconf=0.9", &tight)
	if tight.Count > rr.Count {
		t.Fatalf("tightened query returned more rules (%d > %d)", tight.Count, rr.Count)
	}
	for _, r := range tight.Rules {
		if !rules.MeetsConfidence(r.Confidence, 0.9) {
			t.Fatalf("minconf=0.9 returned %+v", r)
		}
	}
	// Item filter: every returned rule mentions the item.
	if len(rr.Rules) > 0 {
		item := rr.Rules[0].Antecedent[0]
		var filt rulesResponse
		getJSON(t, fmt.Sprintf("%s/rules?item=%d", ts.URL, item), &filt)
		if filt.Count == 0 {
			t.Fatalf("item filter %d returned nothing", item)
		}
		for _, r := range filt.Rules {
			found := false
			for _, v := range append(append([]int64{}, r.Antecedent...), r.Consequent...) {
				if v == item {
					found = true
				}
			}
			if !found {
				t.Fatalf("item=%d filter returned rule without it: %+v", item, r)
			}
		}
	}
	// Limit caps the result.
	var lim rulesResponse
	getJSON(t, ts.URL+"/rules?limit=1", &lim)
	if rr.Count > 0 && lim.Count != 1 {
		t.Fatalf("limit=1 returned %d rules", lim.Count)
	}

	var is itemsetsResponse
	if code := getJSON(t, ts.URL+"/itemsets", &is); code != http.StatusOK {
		t.Fatalf("/itemsets: HTTP %d", code)
	}
	if is.Count == 0 {
		t.Fatal("/itemsets returned no frequent itemsets")
	}
	var is1 itemsetsResponse
	getJSON(t, ts.URL+"/itemsets?k=1", &is1)
	for _, f := range is1.Itemsets {
		if len(f.Items) != 1 {
			t.Fatalf("k=1 returned %v", f.Items)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"armined_ingested_transactions_total", "armined_remines_total",
		"armined_snapshot_generation", "armine_chunks_claimed_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The mine behind this small snapshot takes well under a second; its
	// wall-clock gauge must carry the fraction, not truncate it to 0.
	wallRe := regexp.MustCompile(`(?m)^armined_snapshot_mine_wall_seconds (\S+)$`)
	if m := wallRe.FindSubmatch(body); m == nil {
		t.Error("/metrics missing armined_snapshot_mine_wall_seconds")
	} else if v, err := strconv.ParseFloat(string(m[1]), 64); err != nil || v <= 0 {
		t.Errorf("armined_snapshot_mine_wall_seconds = %q, want a positive float", m[1])
	}

	var h healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("/healthz: HTTP %d, %+v", code, h)
	}
	if h.Ingested != int64(len(txs)) {
		t.Fatalf("/healthz ingested %d, want %d", h.Ingested, len(txs))
	}
}

// TestIngestValidation exercises the request-rejection paths.
func TestIngestValidation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 4
	cfg.MaxTxItems = 3
	cfg.MaxItem = 100
	cfg.MaxBodyBytes = 1 << 16
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty batch", map[string][][]int64{"transactions": {}}, http.StatusBadRequest},
		{"batch too large", map[string][][]int64{"transactions": {{1}, {1}, {1}, {1}, {1}}}, http.StatusBadRequest},
		{"empty transaction", map[string][][]int64{"transactions": {{}}}, http.StatusBadRequest},
		{"transaction too long", map[string][][]int64{"transactions": {{1, 2, 3, 4}}}, http.StatusBadRequest},
		{"negative item", map[string][][]int64{"transactions": {{-1}}}, http.StatusBadRequest},
		{"item out of universe", map[string][][]int64{"transactions": {{100}}}, http.StatusBadRequest},
		{"unknown field", map[string]string{"nope": "x"}, http.StatusBadRequest},
		{"ok", map[string][][]int64{"transactions": {{1, 2}, {2, 1}}}, http.StatusAccepted},
	}
	for _, tc := range cases {
		if code := postJSON(t, ts.URL+"/ingest", tc.body, nil); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, code, tc.want)
		}
	}
	// A rejected batch must be all-or-nothing: only the final ok case landed.
	if got := s.Ingested(); got != 2 {
		t.Fatalf("ingested %d transactions, want 2 (rejected batches must not partially land)", got)
	}
	// GET on a POST route and queries before any snapshot.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: HTTP %d, want 405", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/rules", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/rules before first snapshot: HTTP %d, want 503", code)
	}
}

// TestIngestArenaOverflow pins the overflow contract: when the item arena
// fills mid-batch, the prefix that fit stays ingested, the HTTP status is
// 507, and the daemon keeps serving.
func TestIngestArenaOverflow(t *testing.T) {
	restore := db.SetArenaLimitForTesting(10)
	defer restore()

	s := New(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 4 transactions × 3 items: the 4th would need 12 > 10 arena slots.
	body := map[string][][]int64{"transactions": {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 4, 7}}}
	var ir ingestResponse
	if code := postJSON(t, ts.URL+"/ingest", body, &ir); code != http.StatusInsufficientStorage {
		t.Fatalf("overflow ingest: HTTP %d, want 507", code)
	}
	if ir.Accepted != 3 {
		t.Fatalf("accepted %d, want 3 (durable prefix)", ir.Accepted)
	}
	if ir.Error == "" {
		t.Fatal("overflow response missing error")
	}
	if s.Ingested() != 3 {
		t.Fatalf("Ingested() = %d, want 3", s.Ingested())
	}
}

// TestConcurrentQueriesDuringIngestion is the race test the tentpole
// demands: with -race enabled, hammer /ingest, /rules, /itemsets, /metrics
// and /healthz concurrently while the background loop re-mines. Correctness
// here is "no data race, no torn snapshot": every rules response must be
// internally consistent (count matches, confidences above threshold).
func TestConcurrentQueriesDuringIngestion(t *testing.T) {
	txs, _ := genBatch(t, gen.Params{T: 6, I: 3, D: 600, Seed: 13})

	s := New(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed enough data that snapshots exist while the hammering runs.
	first, err := s.ValidateBatch(txs[:100])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	waitPublished(t, s, 100)

	var wg sync.WaitGroup
	// Writer: stream the rest in small batches over HTTP.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 100; lo < len(txs); lo += 50 {
			hi := lo + 50
			if hi > len(txs) {
				hi = len(txs)
			}
			code := postJSON(t, ts.URL+"/ingest", map[string][][]int64{"transactions": txs[lo:hi]}, nil)
			if code != http.StatusAccepted {
				t.Errorf("concurrent ingest: HTTP %d", code)
				return
			}
		}
	}()
	// Readers: rules, itemsets, metrics, health — all racing the writer and
	// the re-mine loop.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch r % 4 {
				case 0:
					var rr rulesResponse
					if code := getJSON(t, ts.URL+"/rules", &rr); code != http.StatusOK {
						t.Errorf("/rules: HTTP %d", code)
						return
					}
					if rr.Count != len(rr.Rules) {
						t.Errorf("torn rules response: count %d != len %d", rr.Count, len(rr.Rules))
						return
					}
					for _, rl := range rr.Rules {
						if !rules.MeetsConfidence(rl.Confidence, s.cfg.MinConfidence) {
							t.Errorf("rule below threshold in snapshot: %+v", rl)
							return
						}
					}
				case 1:
					var is itemsetsResponse
					if code := getJSON(t, ts.URL+"/itemsets?k=1", &is); code != http.StatusOK {
						t.Errorf("/itemsets: HTTP %d", code)
						return
					}
				case 2:
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						t.Errorf("/metrics: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case 3:
					var h healthzResponse
					getJSON(t, ts.URL+"/healthz", &h)
				}
			}
		}(r)
	}
	wg.Wait()

	// Quiesce: the loop must converge on the full prefix.
	snap := waitPublished(t, s, int64(len(txs)))
	if snap.DBLen != int64(len(txs)) {
		t.Fatalf("final snapshot covers %d, want %d", snap.DBLen, len(txs))
	}
}

// TestShutdownCancelsMine checks Run exits promptly on cancellation even
// with data pending, and the published snapshot (if any) stays readable.
func TestShutdownCancelsMine(t *testing.T) {
	txs, _ := genBatch(t, gen.Params{T: 10, I: 5, D: 2000, Seed: 3})
	cfg := testConfig()
	cfg.Support = 0.002 // deep lattice: the mine takes long enough to cancel into
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go s.Run(ctx)

	batch, err := s.ValidateBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the mine start
	cancel()

	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit within 10s of cancellation")
	}
	// Whatever was published before the cancel must still be coherent.
	if snap := s.Published(); snap != nil {
		if got := snap.QueryRules(s.cfg.MinConfidence, -1, 0); len(got) != len(snap.Rules) {
			t.Fatalf("published snapshot inconsistent after shutdown: %d != %d", len(got), len(snap.Rules))
		}
	}
}

// TestSnapshotViewIsolation pins the SnapshotView aliasing contract the
// whole design rests on: appends to the parent database never change what
// a previously taken view reads.
func TestSnapshotViewIsolation(t *testing.T) {
	d := db.New(0)
	for i := 0; i < 100; i++ {
		d.Append(int64(i), itemset.New(itemset.Item(i%7), itemset.Item(7+i%5)))
	}
	view := d.SnapshotView()
	wantLen := view.Len()
	wantItems := make([]itemset.Itemset, wantLen)
	for i := 0; i < wantLen; i++ {
		wantItems[i] = append(itemset.Itemset{}, view.Items(i)...)
	}
	for i := 100; i < 5000; i++ {
		d.Append(int64(i), itemset.New(itemset.Item(i%11), itemset.Item(11+i%13)))
	}
	if view.Len() != wantLen {
		t.Fatalf("view grew: %d -> %d", wantLen, view.Len())
	}
	for i := 0; i < wantLen; i++ {
		if !reflect.DeepEqual(view.Items(i), wantItems[i]) {
			t.Fatalf("view transaction %d changed after parent appends", i)
		}
	}
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}
}
