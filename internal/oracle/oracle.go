// Package oracle is the one result-equivalence check the engine test suites
// share: every exact mining path must agree with sequential Apriori
// bit-for-bit — the same MinCount, and per k the same frequent itemsets in
// the same order with the same supports.
package oracle

import (
	"testing"

	"repro/internal/apriori"
)

// SameResult reports (through t.Errorf) every way got differs from want:
// MinCount, the number of frequent itemsets per k, and the first itemset or
// support mismatch per k. A missing level counts as an empty one.
func SameResult(t testing.TB, label string, got, want *apriori.Result) {
	t.Helper()
	if got.MinCount != want.MinCount {
		t.Errorf("%s: MinCount %d != %d", label, got.MinCount, want.MinCount)
	}
	gk, wk := len(got.ByK), len(want.ByK)
	for k := 1; k < gk || k < wk; k++ {
		var g, w []apriori.FrequentItemset
		if k < gk {
			g = got.ByK[k]
		}
		if k < wk {
			w = want.ByK[k]
		}
		if len(g) != len(w) {
			t.Errorf("%s: k=%d has %d frequent, want %d", label, k, len(g), len(w))
			continue
		}
		for i := range g {
			if !g[i].Items.Equal(w[i].Items) || g[i].Count != w[i].Count {
				t.Errorf("%s: k=%d[%d] = %v/%d, want %v/%d",
					label, k, i, g[i].Items, g[i].Count, w[i].Items, w[i].Count)
				break
			}
		}
	}
}
