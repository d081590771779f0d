package ccpd

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/oracle"
	"repro/internal/vbit"
)

// TestCrossAlgorithmEquivalence asserts that every mining engine in the repo
// — sequential Apriori, CCPD under all four database partition modes and
// PCCD, each with iteration 2 counted by the hash tree and by the pair pass,
// Eclat, and the vertical bitmap engine under its three layouts (mixed,
// all-bitmap, all-tidlist) — returns the same frequent sets with the same
// supports, over a
// grid of seeded synthetic databases and fractional support thresholds. The
// fractional thresholds go through the shared ceiling computation, so this
// suite also guards against the engines' support arithmetic drifting apart
// again (the old floor bug lived in two separately-maintained copies).
func TestCrossAlgorithmEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, sup := range []float64{0.01, 0.025} {
			want, err := apriori.Mine(d, apriori.Options{MinSupport: sup, ShortCircuit: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, pairPass := range []bool{false, true} {
				for _, mode := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionDynamic, PartitionStealing} {
					res, _, err := Mine(context.Background(), d, Options{
						Options: apriori.Options{MinSupport: sup, ShortCircuit: true},
						Procs:   4, Balance: BalanceBitonic, DBPart: mode, ChunkSize: 32,
						PairPass: pairPass,
					})
					if err != nil {
						t.Fatalf("seed %d sup %g ccpd/%s pair pass %v: %v", seed, sup, mode, pairPass, err)
					}
					oracle.SameResult(t, fmt.Sprintf("%s pair pass %v", mode, pairPass), res, want)
				}
				pres, _, err := MinePCCD(context.Background(), d, Options{
					Options: apriori.Options{MinSupport: sup, ShortCircuit: true}, Procs: 3,
					PairPass: pairPass,
				})
				if err != nil {
					t.Fatalf("seed %d sup %g pccd pair pass %v: %v", seed, sup, pairPass, err)
				}
				oracle.SameResult(t, fmt.Sprintf("pccd pair pass %v", pairPass), pres, want)
			}
			eres, err := eclat.Mine(context.Background(), d, eclat.Options{MinSupport: sup, Procs: 2})
			if err != nil {
				t.Fatalf("seed %d sup %g eclat: %v", seed, sup, err)
			}
			oracle.SameResult(t, "eclat", eres, want)
			if eres.MinCount != want.MinCount {
				t.Errorf("seed %d sup %g eclat: MinCount %d != %d", seed, sup, eres.MinCount, want.MinCount)
			}
			// vbit under three layouts: the default mixed representation,
			// all-bitmap (any materialized column clears a 1e-9 cutoff) and
			// all-tidlist (no column reaches a cutoff > 1).
			for name, cutoff := range map[string]float64{
				"vbit": 0, "vbit-dense": 1e-9, "vbit-sparse": 1.5,
			} {
				vres, _, err := vbit.Mine(context.Background(), d, vbit.Options{MinSupport: sup, Procs: 3, DensityCutoff: cutoff})
				if err != nil {
					t.Fatalf("seed %d sup %g %s: %v", seed, sup, name, err)
				}
				oracle.SameResult(t, name, vres, want)
				if vres.MinCount != want.MinCount {
					t.Errorf("seed %d sup %g %s: MinCount %d != %d", seed, sup, name, vres.MinCount, want.MinCount)
				}
			}
		}
	}
}

// exactThresholdDB builds 300 transactions where itemset {0,1} appears in
// exactly 2 and item 2 in exactly 3 — the boundary cases of a 1% threshold
// on 300 rows (0.01 × 300 = 3 up to float rounding).
func exactThresholdDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New(4)
	for i := 0; i < 300; i++ {
		switch {
		case i < 2:
			d.Append(int64(i), itemset.New(0, 1, 3))
		case i < 3:
			d.Append(int64(i), itemset.New(2, 3))
		case i < 5:
			d.Append(int64(i), itemset.New(2))
		default:
			d.Append(int64(i), itemset.New(3))
		}
	}
	return d
}

// TestFractionalSupportBoundaryParallel is the parallel-engine face of the
// support-threshold regression: at MinSupport 0.01 on 300 transactions the
// threshold is 3 occurrences (ceiling), so the 2-occurrence {0,1} must not
// be frequent while the 3-occurrence item 2 must. The former floor
// arithmetic computed int64(2.999…) = 2 and admitted both.
func TestFractionalSupportBoundaryParallel(t *testing.T) {
	d := exactThresholdDB(t)
	for _, mode := range []DBPartition{PartitionBlock, PartitionDynamic} {
		res, _, err := Mine(context.Background(), d, Options{
			Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
			Procs:   4, DBPart: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinCount != 3 {
			t.Errorf("%s: MinCount = %d, want 3 (ceil of 0.01×300)", mode, res.MinCount)
		}
		if got := res.SupportOf(itemset.New(0, 1)); got != 0 {
			t.Errorf("%s: {0,1} (2 occurrences) reported frequent with support %d", mode, got)
		}
		if got := res.SupportOf(itemset.New(2)); got != 3 {
			t.Errorf("%s: {2} support = %d, want 3", mode, got)
		}
	}
}
