package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
)

// relabeled returns d with its items renamed through perm and its
// transactions reordered by order (row i of the result is row order[i] of d).
func relabeled(d *db.Database, perm []itemset.Item, order []int) *db.Database {
	out := db.New(d.NumItems())
	for i, src := range order {
		row := d.Items(src)
		items := make([]itemset.Item, len(row))
		for j, it := range row {
			items[j] = perm[it]
		}
		out.Append(int64(i), itemset.New(items...))
	}
	return out
}

// supportsByKey flattens a result into itemset key → support, renaming every
// itemset through perm first (nil perm keeps the items).
func supportsByKey(res *apriori.Result, perm []itemset.Item) map[string]int64 {
	m := map[string]int64{}
	for _, level := range res.ByK {
		for _, f := range level {
			items := make([]itemset.Item, len(f.Items))
			for j, it := range f.Items {
				if perm != nil {
					it = perm[it]
				}
				items[j] = it
			}
			m[itemset.New(items...).Key()] = f.Count
		}
	}
	return m
}

// TestMetamorphicRelabelPermute checks every registered engine against two
// metamorphic relations at once: renaming the items through a permutation
// and shuffling the transactions must leave every itemset's support
// unchanged up to the renaming. Item ranks, triangle cells, bitmap columns
// and equivalence classes all move under a relabeling, so a rank↔item
// mix-up anywhere in an engine breaks this even where a fixed-label oracle
// comparison would not notice.
func TestMetamorphicRelabelPermute(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 7, D: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		perm := make([]itemset.Item, d.NumItems())
		for i, p := range rng.Perm(d.NumItems()) {
			perm[i] = itemset.Item(p)
		}
		md := relabeled(d, perm, rng.Perm(d.Len()))
		spec := Spec{
			Mining: apriori.Options{MinSupport: 0.015, ShortCircuit: true},
			Procs:  3, ChunkSize: 32,
		}
		for _, name := range Names() {
			res, _, err := Dispatch(context.Background(), name, d, nil, spec)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			mres, _, err := Dispatch(context.Background(), name, md, nil, spec)
			if err != nil {
				t.Fatalf("seed %d %s relabeled: %v", seed, name, err)
			}
			want, got := supportsByKey(res, perm), supportsByKey(mres, nil)
			if len(got) != len(want) || len(res.ByK) < 3 {
				t.Fatalf("seed %d %s: %d itemsets after relabeling, want %d (levels %d)", seed, name, len(got), len(want), len(res.ByK))
			}
			for key, sup := range want {
				if got[key] != sup {
					t.Errorf("seed %d %s: relabeled itemset %s has support %d, want %d", seed, name, key, got[key], sup)
					break
				}
			}
		}
	}
}
