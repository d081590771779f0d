package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/rules"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 990, false}, // 9 beyond
		{800, 0.99, 792, false}, // one serve round of ingest batches
		{1600, 0.99, 1584, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestDigestsAgreeAcrossEnginesAndGenerators(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 8, I: 3, D: 3000, N: 200, L: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Planner{Procs: procs}.Plan(engine.Characterize(d))
	spec := plannedSpec(plan)
	spec.Mining.MinSupport = 0.01
	var want string
	for _, name := range []string{"seq", "ccpd", "vbit", "eclat"} {
		res, _, err := engine.Dispatch(context.Background(), name, d, nil, spec)
		if err != nil {
			t.Fatal(name, err)
		}
		got := itemsetDigest(res)
		if want == "" {
			want = got
			if slow, fast := rulesDigest(rules.Generate(res, ruleOptions(d))), rulesDigest(rules.GenerateFast(res, ruleOptions(d))); slow != fast {
				t.Errorf("Generate and GenerateFast digests differ: %s vs %s", slow, fast)
			}
		}
		if got != want {
			t.Errorf("%s itemset digest %s, want %s", name, got, want)
		}
	}
}

func TestDigestIsPinnedAndSensitive(t *testing.T) {
	res := &apriori.Result{ByK: [][]apriori.FrequentItemset{
		nil,
		{{Items: itemset.New(1), Count: 5}, {Items: itemset.New(2), Count: 4}},
		{{Items: itemset.New(1, 2), Count: 3}},
	}}
	rs := rules.Generate(res, rules.Options{MinConfidence: 0.5, DBSize: 10})
	const (
		pinnedItemsets = "3e058dc0f5c86392ced0cb9c6d19cfc05e6180fb7a4cba88dfd5b9c8560ef61c"
		pinnedRules    = "8a6652e51c8e4a948e0976cb3fbb3001076370bddf47846924a4d0d1a2e5385e"
	)
	if got := itemsetDigest(res); got != pinnedItemsets {
		t.Errorf("itemset digest %s, pinned %s", got, pinnedItemsets)
	}
	if got := rulesDigest(rs); got != pinnedRules {
		t.Errorf("rules digest %s, pinned %s", got, pinnedRules)
	}
	trailing := &apriori.Result{ByK: append(append([][]apriori.FrequentItemset(nil), res.ByK...), nil)}
	if itemsetDigest(trailing) != pinnedItemsets {
		t.Error("an empty trailing level changes the itemset digest")
	}
	before := itemsetDigest(res)
	res.ByK[2][0].Count = 4
	if itemsetDigest(res) == before {
		t.Error("itemset digest ignores a support change")
	}
	rs[0].Confidence = rs[0].Confidence * (1 + 1e-15)
	if rulesDigest(rs) == pinnedRules {
		t.Error("rules digest ignores the last bit of a confidence")
	}
}

func TestVisibleLatencyMatching(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	pubs := []publish{
		{dbLen: 200, at: at(50)},  // published before the second ack arrived
		{dbLen: 500, at: at(400)}, // covers the third and fourth
		{dbLen: 900, at: at(900)}, // covers the fifth
	}
	acks := []ack{
		{covers: 100, at: at(10)},
		{covers: 200, at: at(60)},
		{covers: 300, at: at(100)},
		{covers: 500, at: at(150)},
		{covers: 700, at: at(200)},
		{covers: 1000, at: at(300)}, // never published
	}
	lat, unmatched := visibleLatencies(acks, pubs)
	want := []float64{40, 0, 300, 250, 700}
	if !reflect.DeepEqual(lat, want) || unmatched != 1 {
		t.Errorf("visibleLatencies = %v, %d unmatched; want %v, 1", lat, unmatched, want)
	}
}

func TestQueryMixIsDeterministicPerSeed(t *testing.T) {
	items := make([]int64, 300)
	for i := range items {
		items[i] = int64(1000 - i)
	}
	a, b := queryMix(42, 4000, items), queryMix(42, 4000, items)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different query mixes")
	}
	if reflect.DeepEqual(a, queryMix(43, 4000, items)) {
		t.Error("different seeds gave the same query mix")
	}
	rulesN, top := 0, 0
	for _, r := range a {
		if r.kind == kindRules {
			rulesN++
			if r.item == items[0] {
				top++
			}
		}
	}
	if share := float64(rulesN) / float64(len(a)); share < 0.72 || share > 0.78 {
		t.Errorf("rules share %.3f, want about 3/4", share)
	}
	if share := float64(top) / float64(rulesN); share < 0.1 {
		t.Errorf("most popular item drew %.3f of rule queries; Zipf(1.1) should give it more than 0.1", share)
	}
	if last := a[len(a)-1].at; last != time.Duration(len(a)-1)*time.Second/queryRate {
		t.Errorf("last query due at %v", last)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// benchmark's declaration at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
