package ccpd

import (
	"context"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/oracle"
)

func testDB(t *testing.T) *db.Database {
	t.Helper()
	d, err := gen.Generate(gen.Params{N: 80, L: 20, I: 4, T: 8, D: 800, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCCPDMatchesSequential(t *testing.T) {
	d := testDB(t)
	seqRes, err := apriori.Mine(d, apriori.Options{MinSupport: 0.01, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		for _, mode := range []hashtree.CounterMode{hashtree.CounterLocked, hashtree.CounterAtomic, hashtree.CounterPrivate} {
			opts := Options{
				Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
				Procs:   procs, Counter: mode, Balance: BalanceBitonic,
			}
			res, stats, err := Mine(context.Background(), d, opts)
			if err != nil {
				t.Fatal(err)
			}
			oracle.SameResult(t, mode.String(), res, seqRes)
			if stats.Procs != procs || len(stats.PerIter) == 0 {
				t.Errorf("stats malformed: %+v", stats)
			}
		}
	}
}

func TestCCPDBalanceSchemes(t *testing.T) {
	d := testDB(t)
	seqRes, _ := apriori.Mine(d, apriori.Options{MinSupport: 0.01})
	for _, b := range []BalanceScheme{BalanceBlock, BalanceInterleaved, BalanceBitonic} {
		res, _, err := Mine(context.Background(), d, Options{
			Options: apriori.Options{MinSupport: 0.01},
			Procs:   4, Balance: b,
			AdaptiveMinUnits: 1, // force parallel generation
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle.SameResult(t, b.String(), res, seqRes)
	}
}

func TestCCPDDBPartitionModes(t *testing.T) {
	d := testDB(t)
	seqRes, _ := apriori.Mine(d, apriori.Options{MinSupport: 0.01})
	for _, p := range []DBPartition{PartitionBlock, PartitionWorkload} {
		res, _, err := Mine(context.Background(), d, Options{
			Options: apriori.Options{MinSupport: 0.01},
			Procs:   4, DBPart: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle.SameResult(t, p.String(), res, seqRes)
	}
}

func TestCCPDTreeBalancingVariants(t *testing.T) {
	d := testDB(t)
	seqRes, _ := apriori.Mine(d, apriori.Options{MinSupport: 0.01})
	for _, h := range []hashtree.HashKind{hashtree.HashInterleaved, hashtree.HashBitonic} {
		for _, sc := range []bool{false, true} {
			res, _, err := Mine(context.Background(), d, Options{
				Options: apriori.Options{MinSupport: 0.01, Hash: h, ShortCircuit: sc},
				Procs:   3,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle.SameResult(t, h.String(), res, seqRes)
		}
	}
}

func TestPCCDMatchesSequential(t *testing.T) {
	d := testDB(t)
	seqRes, _ := apriori.Mine(d, apriori.Options{MinSupport: 0.01})
	for _, procs := range []int{1, 3, 4} {
		res, stats, err := MinePCCD(context.Background(), d, Options{
			Options: apriori.Options{MinSupport: 0.01},
			Procs:   procs,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle.SameResult(t, "pccd", res, seqRes)
		if len(stats.PerIter) == 0 {
			t.Error("missing timings")
		}
	}
}

func TestAdaptiveParallelism(t *testing.T) {
	d := testDB(t)
	// Huge cutoff: generation must go sequential every iteration.
	_, stats, err := Mine(context.Background(), d, Options{
		Options:          apriori.Options{MinSupport: 0.01},
		Procs:            4,
		AdaptiveMinUnits: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range stats.PerIter[1:] {
		if it.Candidates > 0 && !it.GenSequential {
			t.Errorf("K=%d: expected sequential generation", it.K)
		}
	}
	// Cutoff 1: generation parallel whenever there are units.
	_, stats, err = Mine(context.Background(), d, Options{
		Options:          apriori.Options{MinSupport: 0.01},
		Procs:            4,
		AdaptiveMinUnits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawParallel := false
	for _, it := range stats.PerIter[1:] {
		if !it.GenSequential && it.Candidates > 0 {
			sawParallel = true
		}
	}
	if !sawParallel {
		t.Error("no parallel candidate generation observed")
	}
}

func TestScanBytes(t *testing.T) {
	d := testDB(t)
	ccpd := ScanBytes(d, 5, 8, false)
	pccd := ScanBytes(d, 5, 8, true)
	if pccd != 8*ccpd {
		t.Errorf("PCCD should scan P× more: %d vs %d", pccd, ccpd)
	}
}

func TestStatsTotalCount(t *testing.T) {
	d := testDB(t)
	_, stats, err := Mine(context.Background(), d, Options{Options: apriori.Options{MinSupport: 0.01}, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalCount() <= 0 {
		t.Error("TotalCount should be positive")
	}
	if stats.Total < stats.TotalCount() {
		t.Error("total time below counting time")
	}
}

func TestSchemeStrings(t *testing.T) {
	if BalanceBlock.String() != "block" || BalanceInterleaved.String() != "interleaved" || BalanceBitonic.String() != "bitonic" {
		t.Error("BalanceScheme strings")
	}
	if PartitionBlock.String() != "block" || PartitionWorkload.String() != "workload" {
		t.Error("DBPartition strings")
	}
}

func TestEmptyDatabaseParallel(t *testing.T) {
	d := db.New(5)
	res, _, err := Mine(context.Background(), d, Options{Options: apriori.Options{MinSupport: 0.5}, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() != 0 {
		t.Errorf("empty db mined %d itemsets", res.NumFrequent())
	}
	res, _, err = MinePCCD(context.Background(), d, Options{Options: apriori.Options{MinSupport: 0.5}, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() != 0 {
		t.Errorf("empty db PCCD mined %d itemsets", res.NumFrequent())
	}
}

func TestMoreProcsThanRows(t *testing.T) {
	d := db.New(6)
	d.Append(1, itemset.New(1, 2, 3))
	d.Append(2, itemset.New(1, 2, 3))
	res, _, err := Mine(context.Background(), d, Options{Options: apriori.Options{AbsSupport: 2}, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.SupportOf(itemset.New(1, 2, 3)) != 2 {
		t.Errorf("support(123) = %d", res.SupportOf(itemset.New(1, 2, 3)))
	}
}
