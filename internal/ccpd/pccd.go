package ccpd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/sched"
)

// MinePCCD runs the Partitioned Candidate Common Database algorithm
// (Section 3.3): the candidate set of each iteration is split into
// per-processor local hash trees, and every processor traverses the entire
// database counting only its local tree. No locks or shared counters are
// needed, but each processor pays the full database scan — the paper found
// this approach performs very poorly (a speed-down beyond one processor on
// their I/O-bound system) and our harness reproduces the redundant-scan
// cost structure.
//
// Cancellation and panic containment follow the Mine contract: workers
// poll the context every ChunkSize transactions, the interrupted call
// returns the completed iterations with a *robust.CanceledError, and a
// worker panic surfaces as a *robust.WorkerPanicError. PCCD is the
// measurement foil, not the production path, so it has no checkpointing or
// candidate batching. With Options.PairPass, iteration 2 is the shared
// triangular-array pass, exactly as in Mine.
//
//armlint:cancellable
func MinePCCD(ctx context.Context, d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	minCount := opts.MinCount(d.Len())
	fi := opts.FaultInj
	res := &apriori.Result{MinCount: minCount, ByK: make([][]apriori.FrequentItemset, 2)}
	stats := &Stats{Procs: opts.Procs}
	partial := func(err error) (*apriori.Result, *Stats, error) {
		stats.Total = time.Since(start)
		return res, stats, err
	}

	// The same persistent pool serves the per-iteration build, count and
	// extract phases.
	pool := sched.NewPool(opts.Procs)
	defer pool.Close()
	rec := opts.Obs
	if rec.Enabled() {
		pool.SetWrap(rec.PoolWrap)
		defer pool.SetWrap(nil)
	}

	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	rec.SetPhase(obs.PhaseF1, 1)
	rec.BeginPhase(obs.PhaseF1, 1)
	f1, err := parallelFrequentOne(ctx, d, minCount, pool, fi, opts.ChunkSize)
	rec.EndPhase(obs.PhaseF1, 1)
	if err != nil {
		return nil, nil, annotate(err, "f1", 1)
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		// Interrupted mid-pass: the counts are partial, discard them.
		return nil, nil, err
	}
	res.ByK[1] = f1
	stats.PerIter = append(stats.PerIter, PhaseTiming{
		K: 1, Count: time.Since(t0), Candidates: d.NumItems(), Frequent: len(f1),
	})
	rec.IterStats(1, d.NumItems(), len(f1))

	labels := apriori.LabelsFromF1(f1, d.NumItems())
	prev := make([]itemset.Itemset, len(f1))
	for i, f := range f1 {
		prev[i] = f.Items
	}

	for k := 2; len(prev) > 0 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		var pt PhaseTiming
		pt.K = k

		if err := robust.Canceled(ctx, "gen", k); err != nil {
			return partial(err)
		}
		if k == 2 {
			fk, pt, ok, err := pairIteration(ctx, d, pool, opts, minCount, prev)
			var ce *robust.CanceledError
			switch {
			case errors.As(err, &ce):
				return partial(err)
			case err != nil:
				return nil, nil, err
			case ok:
				res.ByK = append(res.ByK, fk)
				stats.PerIter = append(stats.PerIter, pt)
				prev = prev[:0]
				for _, f := range fk {
					prev = append(prev, f.Items)
				}
				continue
			}
		}
		t0 = time.Now()
		rec.BeginPhase(obs.PhaseCandGen, k)
		cands, _, _ := apriori.GenerateCandidates(prev, opts.NaiveJoin)
		rec.EndPhase(obs.PhaseCandGen, k)
		pt.CandGen = time.Since(t0)
		pt.Candidates = len(cands)
		if len(cands) == 0 {
			rec.IterStats(k, 0, 0)
			stats.PerIter = append(stats.PerIter, pt)
			break
		}

		// Partition candidates across processors (interleaved keeps the
		// per-proc trees similar in size since candidates are sorted).
		t0 = time.Now()
		rec.SetPhase(obs.PhaseTreeBuild, k)
		rec.BeginPhase(obs.PhaseTreeBuild, k)
		parts := make([][]itemset.Itemset, opts.Procs)
		for i, c := range cands {
			p := i % opts.Procs
			parts[p] = append(parts[p], c)
		}
		trees := make([]*hashtree.Tree, opts.Procs)
		counters := make([]*hashtree.Counters, opts.Procs)
		cfg := hashtree.Config{
			K: k, Fanout: opts.Fanout, Threshold: opts.Threshold,
			Hash: opts.Hash, NumItems: d.NumItems(), Labels: labels,
		}
		buildErrs := make([]error, opts.Procs)
		err := pool.Run(func(p int) {
			fi.Fire("build", k, p, -1)
			tr, err := hashtree.Build(cfg, parts[p])
			if err != nil {
				buildErrs[p] = err
				return
			}
			trees[p] = tr
			counters[p] = hashtree.NewCounters(hashtree.CounterAtomic, tr.NumCandidates(), 1)
		})
		rec.EndPhase(obs.PhaseTreeBuild, k)
		if err != nil {
			return nil, nil, annotate(err, "build", k)
		}
		for _, err := range buildErrs {
			if err != nil {
				return nil, nil, fmt.Errorf("pccd: iteration %d: %w", k, err)
			}
		}
		pt.TreeBuild = time.Since(t0)

		// Counting: every processor scans the ENTIRE database.
		if err := robust.Canceled(ctx, "count", k); err != nil {
			return partial(err)
		}
		t0 = time.Now()
		rec.SetPhase(obs.PhaseCount, k)
		rec.BeginPhase(obs.PhaseCount, k)
		err = pool.Run(func(p int) {
			fi.Fire("count", k, p, -1)
			ctxc := trees[p].NewCountCtx(counters[p], hashtree.CountOpts{
				ShortCircuit: opts.ShortCircuit,
			})
			for i := 0; i < d.Len(); i++ {
				if i%opts.ChunkSize == 0 && ctx.Err() != nil {
					break
				}
				ctxc.CountTransaction(d.Items(i))
			}
		})
		rec.EndPhase(obs.PhaseCount, k)
		if err != nil {
			return nil, nil, annotate(err, "count", k)
		}
		if err := robust.Canceled(ctx, "count", k); err != nil {
			return partial(err)
		}
		pt.Count = time.Since(t0)

		// Reduction: each processor extracts its own (sorted) frequent
		// list, and the disjoint lists are k-way merged — replacing the
		// serial concatenate-and-sort tail.
		t0 = time.Now()
		locals := make([][]apriori.FrequentItemset, opts.Procs)
		rec.SetPhase(obs.PhaseReduce, k)
		rec.BeginPhase(obs.PhaseReduce, k)
		err = pool.Run(func(p int) {
			fi.Fire("reduce", k, p, -1)
			locals[p] = apriori.ExtractFrequent(trees[p], counters[p], minCount)
		})
		rec.EndPhase(obs.PhaseReduce, k)
		if err != nil {
			return nil, nil, annotate(err, "reduce", k)
		}
		fk := apriori.MergeFrequent(locals)
		pt.Reduce = time.Since(t0)
		pt.Frequent = len(fk)
		rec.IterStats(k, len(cands), len(fk))

		res.ByK = append(res.ByK, fk)
		stats.PerIter = append(stats.PerIter, pt)
		prev = prev[:0]
		for _, f := range fk {
			prev = append(prev, f.Items)
		}
	}
	stats.Total = time.Since(start)
	return res, stats, nil
}

// ScanBytes returns the total bytes logically read from the database by a
// CCPD run (each iteration reads the DB once, split across processors) vs a
// PCCD run (each processor reads the whole DB every iteration) — the I/O
// asymmetry behind the paper's PCCD speed-down observation.
func ScanBytes(d *db.Database, iterations, procs int, pccd bool) int64 {
	per := d.SizeBytes()
	if pccd {
		return per * int64(iterations) * int64(procs)
	}
	return per * int64(iterations)
}
