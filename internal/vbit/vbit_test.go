package vbit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/oracle"
	"repro/internal/pairs"
	"repro/internal/robust"
)

// randomDB builds a database of d transactions over n items where each
// item appears with probability density — including, deliberately, empty
// transactions when the dice say so.
func randomDB(rng *rand.Rand, n, dd int, density float64) *db.Database {
	out := db.New(n)
	for t := 0; t < dd; t++ {
		var items itemset.Itemset
		for it := 0; it < n; it++ {
			if rng.Float64() < density {
				items = append(items, itemset.Item(it))
			}
		}
		out.Append(int64(t), items)
	}
	return out
}

// TestMineProperty drives the engine over randomized databases spanning the
// density spectrum — plus the degenerate shapes (empty transactions,
// singleton universe) — under all three layouts, against sequential
// Apriori as the reference.
func TestMineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []struct {
		name    string
		n, d    int
		density float64
		support float64
	}{
		{"dense", 12, 200, 0.5, 0.1},
		{"sparse", 40, 300, 0.03, 0.01},
		{"mixed", 25, 250, 0.15, 0.05},
		{"singleton-universe", 1, 50, 0.5, 0.1},
		{"mostly-empty", 15, 120, 0.02, 0.02},
	}
	cutoffs := map[string]float64{"mixed-layout": 0, "all-bitmap": 1e-9, "all-tidlist": 1.5}
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			d := randomDB(rng, sh.n, sh.d, sh.density)
			want, err := apriori.Mine(d, apriori.Options{MinSupport: sh.support, ShortCircuit: true})
			if err != nil {
				t.Fatal(err)
			}
			for cn, cutoff := range cutoffs {
				res, stats, err := Mine(context.Background(), d, Options{MinSupport: sh.support, Procs: 3, DensityCutoff: cutoff})
				if err != nil {
					t.Fatalf("%s/%s trial %d: %v", sh.name, cn, trial, err)
				}
				oracle.SameResult(t, sh.name+"/"+cn, res, want)
				if res.MinCount != want.MinCount {
					t.Errorf("%s/%s: MinCount %d != %d", sh.name, cn, res.MinCount, want.MinCount)
				}
				if stats == nil || stats.Procs != 3 {
					t.Errorf("%s/%s: bad stats %+v", sh.name, cn, stats)
				}
			}
		}
	}
}

func TestMineMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDB(rng, 15, 150, 0.4)
	full, _, err := Mine(context.Background(), d, Options{MinSupport: 0.1, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for maxK := 1; maxK <= 3; maxK++ {
		res, _, err := Mine(context.Background(), d, Options{MinSupport: 0.1, Procs: 2, MaxK: maxK})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.ByK) - 1; got > maxK {
			t.Errorf("MaxK=%d: results reach k=%d", maxK, got)
		}
		for k := 1; k <= maxK && k < len(full.ByK); k++ {
			if len(res.ByK[k]) != len(full.ByK[k]) {
				t.Errorf("MaxK=%d: k=%d has %d sets, want %d", maxK, k, len(res.ByK[k]), len(full.ByK[k]))
			}
		}
	}
}

func TestMineCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := randomDB(rand.New(rand.NewSource(1)), 10, 100, 0.3)
	res, _, err := Mine(ctx, d, Options{MinSupport: 0.1, Procs: 2})
	var ce *robust.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *robust.CanceledError", err)
	}
	if ce.Phase != "f1" || ce.K != 1 {
		t.Errorf("canceled at phase %q k=%d, want f1/1", ce.Phase, ce.K)
	}
	if res != nil {
		t.Errorf("pre-canceled run returned a result")
	}
}

// TestMineCtxMidRun cancels concurrently with the DFS phase; whatever the
// timing, the outcome must be either the complete result or a partial one
// that is a support-exact subset of it, tagged with a CanceledError.
func TestMineCtxMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDB(rng, 30, 400, 0.35)
	opts := Options{MinSupport: 0.05, Procs: 2}
	want, _, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, _, err := Mine(ctx, d, opts)
	if err != nil {
		var ce *robust.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *robust.CanceledError", err)
		}
	}
	if res == nil {
		return // canceled inside F1: no usable partial, by contract
	}
	for k := 2; k < len(res.ByK); k++ {
		for _, f := range res.ByK[k] {
			if want.SupportOf(f.Items) != f.Count {
				t.Fatalf("partial result contains %v/%d not in the full result", f.Items, f.Count)
			}
		}
	}
}

// TestModelPinned pins the deterministic work model: the totals depend only
// on the database and options, not on the processor count or scheduling
// luck, and their absolute values are frozen so silent cost-model drift
// fails loudly (same discipline as the CCPD model tests).
func TestModelPinned(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var ref *Stats
	for _, procs := range []int{1, 2, 4} {
		_, stats, err := Mine(context.Background(), d, Options{MinSupport: 0.01, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = stats
			continue
		}
		if stats.TotalWork() != ref.TotalWork() {
			t.Errorf("procs=%d: TotalWork %d != %d", procs, stats.TotalWork(), ref.TotalWork())
		}
		for c, w := range stats.ClassWork {
			if ref.ClassWork[c] != w {
				t.Errorf("procs=%d: ClassWork[%d] = %d != %d", procs, c, w, ref.ClassWork[c])
			}
		}
	}
	// Frozen values for N=60 L=15 I=3 T=6 D=400 seed=5 at support 0.01 with
	// the default layout cutoff: 28 bitmap columns, 9 tidlist columns, 37
	// first-level classes. With the pair pass, TotalWork is 9511 pair-pass
	// units plus 83143 class units (level 1 diffs only the frequent pairs)
	// plus the F1, build and merge terms; over the triangle budget the run
	// falls back to diffing every level-1 pair, whose totals are the
	// pre-pair-pass pins (86262 class units, no pair work).
	for _, pin := range []struct {
		name             string
		budget           int64
		total, modelTime int64
	}{
		{"pair pass", 256 << 20, 105847, 40992},
		{"fallback", 0, 99455, 38668},
	} {
		restore := pairs.SetBudgetForTesting(pin.budget)
		_, st1, err1 := Mine(context.Background(), d, Options{MinSupport: 0.01, Procs: 1})
		_, st4, err4 := Mine(context.Background(), d, Options{MinSupport: 0.01, Procs: 4})
		restore()
		if err1 != nil || err4 != nil {
			t.Fatal(err1, err4)
		}
		if st1.TotalWork() != pin.total || st4.TotalWork() != pin.total {
			t.Errorf("%s: TotalWork procs=1/4 = %d/%d, want pinned %d", pin.name, st1.TotalWork(), st4.TotalWork(), pin.total)
		}
		if st4.ModelTime() != pin.modelTime {
			t.Errorf("%s: ModelTime(procs=4) = %d, want pinned %d", pin.name, st4.ModelTime(), pin.modelTime)
		}
	}
	_, stats4, err := Mine(context.Background(), d, Options{MinSupport: 0.01, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats4.Classes != 37 || stats4.DenseItems != 28 || stats4.SparseItems != 9 {
		t.Errorf("classes/dense/sparse = %d/%d/%d, want 37/28/9",
			stats4.Classes, stats4.DenseItems, stats4.SparseItems)
	}
	var schedSum, classSum int64
	for _, w := range ref.CountWork {
		schedSum += w
	}
	for _, w := range ref.ClassWork {
		classSum += w
	}
	if schedSum != classSum {
		t.Errorf("GreedySchedule lost work: %d != %d", schedSum, classSum)
	}
}

// TestPairPassFallbackIdentical: the pair pass only filters which level-1
// pairs the DFS diffs, so a run over the triangle budget (every pair diffed,
// no PairWork) returns the same result under every layout, and never does
// less class work.
func TestPairPassFallbackIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		d := randomDB(rng, 30, 300, 0.1+0.1*float64(trial))
		for _, cutoff := range []float64{0, 1e-9, 1.5} {
			opts := Options{MinSupport: 0.03, Procs: 3, DensityCutoff: cutoff}
			res, st, err := Mine(context.Background(), d, opts)
			if err != nil {
				t.Fatal(err)
			}
			restore := pairs.SetBudgetForTesting(0)
			fres, fst, err := Mine(context.Background(), d, opts)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d cutoff %g", trial, cutoff)
			oracle.SameResult(t, label, res, fres)
			if st.PairWork == nil || fst.PairWork != nil {
				t.Errorf("%s: PairWork %v / fallback %v, want set / nil", label, st.PairWork, fst.PairWork)
			}
			var cw, fcw int64
			for c := range st.ClassWork {
				cw += st.ClassWork[c]
				fcw += fst.ClassWork[c]
			}
			if cw > fcw {
				t.Errorf("%s: class work %d with the pair pass exceeds %d without", label, cw, fcw)
			}
		}
	}
}
