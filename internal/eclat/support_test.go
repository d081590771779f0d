package eclat

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
)

// TestFractionalSupportBoundary is Eclat's face of the support-threshold
// regression: its minCount used to duplicate apriori's floor arithmetic, so
// at MinSupport 0.01 over 300 transactions (product 2.999…97) it admitted
// 2-occurrence itemsets. Both engines now share apriori.CeilSupport, and 2
// occurrences must be below the threshold of 3.
func TestFractionalSupportBoundary(t *testing.T) {
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
	res, err := Mine(context.Background(), d, Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCount != 3 {
		t.Fatalf("MinCount = %d, want 3 (ceil of 0.01×300)", res.MinCount)
	}
	if got := res.SupportOf(itemset.New(0, 1)); got != 0 {
		t.Errorf("{0,1} with 2 occurrences reported frequent (support %d)", got)
	}
	if got := res.SupportOf(itemset.New(2)); got != 3 {
		t.Errorf("{2} support = %d, want 3", got)
	}
}
