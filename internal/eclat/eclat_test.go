package eclat

import (
	"context"
	"errors"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/robust"
	"repro/internal/vbit"
)

func flat(res *apriori.Result) map[string]int64 {
	out := map[string]int64{}
	for _, f := range res.All() {
		out[f.Items.Key()] = f.Count
	}
	return out
}

func TestEclatMatchesApriori(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 4, T: 8, D: 600, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := apriori.Mine(d, apriori.Options{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	want := flat(ref)
	for _, procs := range []int{1, 4} {
		res, err := Mine(context.Background(), d, Options{MinSupport: 0.02, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		got := flat(res)
		if len(got) != len(want) {
			t.Fatalf("procs=%d: %d frequent, want %d", procs, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				s, _ := itemset.ParseKey(k)
				t.Fatalf("procs=%d: %v = %d, want %d", procs, s, got[k], c)
			}
		}
	}
}

func TestEclatWorkedExample(t *testing.T) {
	// Section 2.1.3 example database, support 2.
	d := db.New(6)
	d.Append(1, itemset.New(1, 4, 5))
	d.Append(2, itemset.New(1, 2))
	d.Append(3, itemset.New(3, 4, 5))
	d.Append(4, itemset.New(1, 2, 4, 5))
	res, err := Mine(context.Background(), d, Options{AbsSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SupportOf(itemset.New(1, 4, 5)); got != 2 {
		t.Errorf("support(145) = %d, want 2", got)
	}
	if got := res.SupportOf(itemset.New(4, 5)); got != 3 {
		t.Errorf("support(45) = %d, want 3", got)
	}
	if res.NumFrequent() != 4+4+1 {
		t.Errorf("NumFrequent = %d, want 9", res.NumFrequent())
	}
}

func TestEclatMaxK(t *testing.T) {
	d, _ := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 300, Seed: 2})
	res, err := Mine(context.Background(), d, Options{MinSupport: 0.02, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 3; k < len(res.ByK); k++ {
		if len(res.ByK[k]) != 0 {
			t.Errorf("MaxK=2 produced %d-itemsets", k)
		}
	}
}

func TestEclatEmpty(t *testing.T) {
	res, err := Mine(context.Background(), db.New(5), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() != 0 {
		t.Error("empty database mined itemsets")
	}
}

func TestIntersect(t *testing.T) {
	// The package-local intersect helper is gone: eclat now runs on the
	// shared vbit.IntersectInto kernel through a scratch buffer.
	a := tidlist{1, 3, 5, 7}
	b := tidlist{2, 3, 6, 7, 9}
	scratch := make(tidlist, len(a))
	n := vbit.IntersectInto(scratch, a, b)
	if got := scratch[:n]; len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("IntersectInto = %v", got)
	}
	if n := vbit.IntersectInto(scratch, a, nil); n != 0 {
		t.Errorf("IntersectInto with nil = %d entries", n)
	}
}

func TestMineCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, _ := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 300, Seed: 2})
	res, err := Mine(ctx, d, Options{MinSupport: 0.02})
	var ce *robust.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *robust.CanceledError", err)
	}
	if res != nil {
		t.Error("pre-canceled run returned a result")
	}
}

// TestMineCtxMidRun cancels concurrently with the class tasks: whatever
// classes completed must carry supports matching the full run, and the
// error (when the cancel lands in time) names the interrupted phase.
func TestMineCtxMidRun(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 4, T: 8, D: 600, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinSupport: 0.02, Procs: 2}
	want, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, err := Mine(ctx, d, opts)
	if err != nil {
		var ce *robust.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *robust.CanceledError", err)
		}
		if res == nil {
			return // canceled before F1 finished: no partial by contract
		}
	}
	for k := 2; k < len(res.ByK); k++ {
		for _, f := range res.ByK[k] {
			if want.SupportOf(f.Items) != f.Count {
				t.Fatalf("partial result %v/%d disagrees with full run", f.Items, f.Count)
			}
		}
	}
}
