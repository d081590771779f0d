package vbit

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/sched"
)

// SegmentedOptions configures an out-of-core vertical run.
type SegmentedOptions struct {
	Options
	// MemBudget caps the bytes of decoded segments resident at once (the
	// seg.Pipeline budget); 0 double-buffers.
	MemBudget int64
	// LoadDelay adds synthetic latency per segment load (benchmark knob).
	LoadDelay time.Duration
}

// SegmentedStats summarizes an out-of-core vertical run. The in-RAM engine's
// per-class DFS work model does not transfer (the segmented engine is
// level-wise), so this carries per-level figures and the pipeline accounting
// instead of bending Stats.
type SegmentedStats struct {
	Procs      int
	Levels     int   // deepest k mined
	Candidates []int // candidates counted per k (index k, 0/1 unused)
	Frequent   []int // frequent sets per k
	Pipeline   seg.PipelineStats
	Total      time.Duration
}

// MineSegmented mines a segmented store with the vertical engine without
// materializing the whole database. The dEclat DFS needs every item's full
// tid column at once, which is exactly what out-of-core forbids, so the
// segmented path runs level-wise instead — the paper's Partition-style
// scheme: per level, candidates are generated once, then each segment is
// materialized as a small vertical layout (bitmaps/tidlists over the
// segment's transactions) and the candidates' supports accumulate across
// segments via the same word-parallel popcount kernels. Frequent sets and
// supports are identical to the in-RAM engine; only the traversal order (and
// with it the work model) differs. Cancellation returns the partial result
// (completed levels) with a *robust.CanceledError.
//
//armlint:cancellable
func MineSegmented(ctx context.Context, r *seg.Reader, opts SegmentedOptions) (*apriori.Result, *SegmentedStats, error) {
	o := opts.Options.withDefaults()
	start := time.Now() //armlint:allow determinism wall-clock phase total feeds SegmentedStats only, never the work model
	n := r.NumTx()
	minCount := apriori.Options{MinSupport: o.MinSupport, AbsSupport: o.AbsSupport}.MinCount(int(n)) //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
	rec := o.Obs
	res := &apriori.Result{MinCount: minCount, ByK: make([][]apriori.FrequentItemset, 2)}
	stats := &SegmentedStats{Procs: o.Procs, Candidates: []int{0, r.NumItems()}, Frequent: []int{0, 0}}

	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}
	pool := sched.NewPool(o.Procs)
	if rec.Enabled() {
		pool.SetWrap(rec.PoolWrap)
	}
	defer func() {
		if rec.Enabled() {
			pool.SetWrap(nil)
		}
		pool.Close()
	}()
	pipe := r.NewPipeline(seg.PipelineOptions{Budget: opts.MemBudget, LoadDelay: opts.LoadDelay, Obs: rec})
	finish := func(err error) (*apriori.Result, *SegmentedStats, error) {
		stats.Pipeline = pipe.Stats()
		stats.Total = time.Since(start) //armlint:allow determinism wall-clock phase total feeds SegmentedStats only, never the work model
		return res, stats, err
	}

	// Level 1: stream segments, block-partitioned private item counts.
	rec.SetPhase(obs.PhaseF1, 1)
	rec.BeginPhase(obs.PhaseF1, 1)
	sups, err := segCountItems(ctx, r, pipe, pool, o.ChunkStride)
	rec.EndPhase(obs.PhaseF1, 1)
	if err != nil {
		return nil, nil, annotate(err, "f1", 1)
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}
	for it, c := range sups {
		if c >= minCount {
			res.ByK[1] = append(res.ByK[1], apriori.FrequentItemset{Items: itemset.New(itemset.Item(it)), Count: c})
		}
	}
	stats.Levels = 1
	stats.Frequent[1] = len(res.ByK[1])
	rec.IterStats(1, r.NumItems(), len(res.ByK[1]))

	prev := make([]itemset.Itemset, len(res.ByK[1]))
	for i, f := range res.ByK[1] {
		prev[i] = f.Items
	}

	// Levels k >= 2: generate candidates, then one streaming pass per level.
	// Each worker owns a disjoint candidate range; per segment it adds the
	// segment-local supports (CountOne against the segment's layout) into
	// the shared totals — disjoint indexes, and segments are separated by
	// the pool barrier, so the accumulation is race-free.
	scratches := make([]*Scratch, o.Procs)
	for k := 2; len(prev) > 1 && (o.MaxK == 0 || k <= o.MaxK); k++ {
		if err := robust.Canceled(ctx, "gen", k); err != nil {
			return finish(err)
		}
		cands, _, _ := apriori.GenerateCandidates(prev, false)
		if len(cands) == 0 {
			break
		}
		sup := make([]int64, len(cands))
		rec.SetPhase(obs.PhaseCount, k)
		rec.BeginPhase(obs.PhaseCount, k)
		perr := pipe.ForEach(ctx, func(si int, sd *db.Database) error {
			// One small vertical layout per segment; minCount 1, because an
			// item rare in this segment can still be globally frequent.
			lay := Materialize(sd, o.DensityCutoff, 1)
			return pool.Run(func(p int) {
				scr := segScratch(&scratches[p], lay)
				lo := p * len(cands) / o.Procs
				hi := (p + 1) * len(cands) / o.Procs
				ow := rec.Worker(p)
				for i := lo; i < hi; i++ {
					if (i-lo)%1024 == 0 && ctx.Err() != nil {
						break
					}
					s := lay.CountOne(scr, cands[i])
					sup[i] += s
					if ow != nil {
						ow.AddWork(int64(lay.Words))
					}
				}
			})
		})
		rec.EndPhase(obs.PhaseCount, k)
		if perr != nil && !errors.Is(perr, context.Canceled) {
			return nil, nil, annotate(fmt.Errorf("vbit: out-of-core level %d: %w", k, perr), "count", k)
		}
		if err := robust.Canceled(ctx, "count", k); err != nil {
			return finish(err)
		}
		var fk []apriori.FrequentItemset
		for i, c := range cands {
			if sup[i] >= minCount {
				fk = append(fk, apriori.FrequentItemset{Items: c, Count: sup[i]})
			}
		}
		stats.Candidates = append(stats.Candidates, len(cands))
		stats.Frequent = append(stats.Frequent, len(fk))
		rec.IterStats(k, len(cands), len(fk))
		if len(fk) == 0 {
			break
		}
		stats.Levels = k
		res.ByK = append(res.ByK, fk)
		prev = prev[:0]
		for _, f := range fk {
			prev = append(prev, f.Items)
		}
	}
	return finish(nil)
}

// segScratch returns a Scratch view sized exactly for lay, growing the
// worker's backing scratch when a larger segment comes along. The kernels
// iterate whole slices, so a reused scratch must not be longer than the
// current layout's columns — hence the re-slice instead of reuse-as-is.
func segScratch(backing **Scratch, lay *Layout) *Scratch {
	need := lay.listMax
	if lay.Words > need {
		need = lay.Words
	}
	if lay.NumTx < need {
		need = lay.NumTx
	}
	b := *backing
	if b == nil || len(b.Words) < lay.Words || len(b.A) < need {
		b = lay.NewScratch()
		*backing = b
		return b
	}
	return &Scratch{Words: b.Words[:lay.Words], A: b.A[:need], B: b.B[:need]}
}

// segCountItems streams the level-1 item counts: per segment, workers count
// block sub-ranges into private arrays; the reduction runs once at the end.
func segCountItems(ctx context.Context, r *seg.Reader, pipe *seg.Pipeline, pool *sched.Pool, stride int) ([]int64, error) {
	procs := pool.Procs()
	numItems := r.NumItems()
	local := make([][]int64, procs)
	for p := range local {
		local[p] = make([]int64, numItems)
	}
	err := pipe.ForEach(ctx, func(si int, sd *db.Database) error {
		return pool.Run(func(p int) {
			counts := local[p]
			n := sd.Len()
			lo, hi := p*n/procs, (p+1)*n/procs
			for i := lo; i < hi; i++ {
				if (i-lo)%stride == 0 && ctx.Err() != nil {
					break
				}
				for _, it := range sd.Items(i) {
					counts[it]++
				}
			}
		})
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	out := make([]int64, numItems)
	for p := 0; p < procs; p++ {
		for it, c := range local[p] {
			out[it] += c
		}
	}
	return out, nil
}
