package ccpd

import (
	"context"
	"testing"

	"repro/internal/apriori"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/oracle"
	"repro/internal/sched"
)

func countWorkTotals(s *Stats) []int64 {
	out := make([]int64, len(s.PerIter))
	for i := range s.PerIter {
		var tot int64
		for _, w := range s.PerIter[i].CountWork {
			tot += w
		}
		out[i] = tot
	}
	return out
}

// TestDynamicMatchesStatic sweeps the dynamic partition modes against the
// static block baseline over counter modes, chunk sizes and processor
// counts: identical frequent sets in identical order, identical per-iteration
// total counting work (the per-transaction work units are partition
// independent), and coherent scheduler observability (claims cover every
// chunk exactly once, the cursor mode never steals).
func TestDynamicMatchesStatic(t *testing.T) {
	d := testDB(t)
	base := apriori.Options{MinSupport: 0.01, ShortCircuit: true}
	ref, refStats, err := Mine(context.Background(), d, Options{Options: base, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	refTotals := countWorkTotals(refStats)

	for _, part := range []DBPartition{PartitionDynamic, PartitionStealing} {
		for _, mode := range []hashtree.CounterMode{hashtree.CounterLocked, hashtree.CounterAtomic, hashtree.CounterPrivate} {
			for _, chunk := range []int{1, 64, 997} {
				for _, procs := range []int{1, 4} {
					label := part.String() + "/" + mode.String()
					res, stats, err := Mine(context.Background(), d, Options{
						Options: base, Procs: procs, Counter: mode,
						DBPart: part, ChunkSize: chunk,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					oracle.SameResult(t, label, res, ref)

					totals := countWorkTotals(stats)
					numChunks := int64(sched.NumChunks(d.Len(), chunk))
					for i, it := range stats.PerIter {
						if it.K == 1 {
							continue // iteration 1 has no chunked counting
						}
						if totals[i] != refTotals[i] {
							t.Errorf("%s chunk=%d procs=%d k=%d: total count work %d, want %d",
								label, chunk, procs, it.K, totals[i], refTotals[i])
						}
						if it.Candidates == 0 {
							continue // terminal iteration: no counting ran
						}
						var claimed, steals int64
						for _, c := range it.ChunksClaimed {
							claimed += c
						}
						for _, s := range it.Steals {
							steals += s
						}
						if claimed != numChunks {
							t.Errorf("%s chunk=%d procs=%d k=%d: %d chunks claimed, want %d",
								label, chunk, procs, it.K, claimed, numChunks)
						}
						if part == PartitionDynamic && steals != 0 {
							t.Errorf("%s k=%d: cursor mode reported %d steals", label, it.K, steals)
						}
						if steals > claimed {
							t.Errorf("%s k=%d: steals %d > claims %d", label, it.K, steals, claimed)
						}
					}
				}
			}
		}
	}
}

// TestStaticModesUnchangedByPool re-checks the static paths (now running on
// the persistent pool) against the sequential miner, including observability
// defaults: no chunk claims, no steals.
func TestStaticModesUnchangedByPool(t *testing.T) {
	d := testDB(t)
	base := apriori.Options{MinSupport: 0.01, ShortCircuit: true}
	seqRes, err := apriori.Mine(d, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []DBPartition{PartitionBlock, PartitionWorkload} {
		res, stats, err := Mine(context.Background(), d, Options{Options: base, Procs: 4, DBPart: part})
		if err != nil {
			t.Fatal(err)
		}
		oracle.SameResult(t, part.String(), res, seqRes)
		for _, it := range stats.PerIter {
			if it.ChunksClaimed != nil || it.Steals != nil {
				t.Errorf("%s k=%d: static mode reported chunk claims %v steals %v",
					part, it.K, it.ChunksClaimed, it.Steals)
			}
		}
	}
}

// TestDynamicBeatsStaticOnSkew plants a heavy tail of giant transactions at
// the end of the database (the worst case for a block partition: one
// processor owns the entire tail) and asserts the dynamic modes cut the
// modelled idle work. This is the acceptance criterion of the scheduler
// change in deterministic form — on a host with real cores the wall-clock
// gap follows the modelled one.
func TestDynamicBeatsStaticOnSkew(t *testing.T) {
	d, err := gen.Generate(gen.Params{
		N: 80, L: 20, I: 4, T: 8, D: 2000, Seed: 7,
		SkewFrac: 0.05, SkewMult: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The heavy tail makes deep levels combinatorially dense; MaxK bounds
	// the run (the scheduling comparison only needs the counting phases).
	base := apriori.Options{MinSupport: 0.02, ShortCircuit: true, MaxK: 3}
	run := func(part DBPartition) *Stats {
		_, stats, err := Mine(context.Background(), d, Options{
			Options: base, Procs: 4, DBPart: part, ChunkSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	static := run(PartitionBlock)
	staticIdle := static.CountIdleWork()
	if staticIdle == 0 {
		t.Fatal("skewed database produced no static imbalance; test is vacuous")
	}
	for _, part := range []DBPartition{PartitionDynamic, PartitionStealing} {
		dyn := run(part)
		idle := dyn.CountIdleWork()
		// Dynamic idle is bounded by roughly one chunk's work per
		// processor per iteration; on this workload that is far below
		// half the static imbalance.
		if idle*2 >= staticIdle {
			t.Errorf("%s: modelled idle %d not well below static %d", part, idle, staticIdle)
		}
		if dyn.ModelTime() >= static.ModelTime() {
			t.Errorf("%s: model time %d not below static %d", part, dyn.ModelTime(), static.ModelTime())
		}
	}
	// The stealing mode must actually steal on a skewed tail: the owner of
	// the heavy block cannot finish first.
	if st := run(PartitionStealing); st.TotalSteals() == 0 {
		t.Error("stealing mode reported zero steals on a skewed database")
	}
}
