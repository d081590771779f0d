package vbit

import (
	"context"
	"errors"
	"runtime"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/robust"
	"repro/internal/sched"
)

// Options configures a vertical mining run.
type Options struct {
	// MinSupport is the minimum support fraction (used when AbsSupport is 0).
	MinSupport float64
	// AbsSupport is the absolute minimum count; overrides MinSupport.
	AbsSupport int64
	// MaxK limits itemset size (0 = unlimited).
	MaxK int
	// Procs is the worker count (default: GOMAXPROCS).
	Procs int
	// DensityCutoff is the item density below which a column is stored as a
	// tidlist instead of a bitmap (<= 0: DefaultDensityCutoff). Values > 1
	// force the all-tidlist layout; tiny positive values force all-bitmap.
	DensityCutoff float64
	// ChunkStride is how many transactions the F1 scan counts between
	// cancellation polls (default 256, as in CCPD's static modes).
	ChunkStride int
	// Obs receives phase spans, per-class chunk events and iteration stats;
	// nil disables observability.
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = runtime.GOMAXPROCS(0)
	}
	if o.ChunkStride <= 0 {
		o.ChunkStride = 256
	}
	if o.DensityCutoff <= 0 {
		o.DensityCutoff = DefaultDensityCutoff
	}
	return o
}

// Stats carries the deterministic work model of one vertical run, mirroring
// ccpd.Stats: per-processor totals are modelled (GreedySchedule over the
// per-class work) because runtime class assignment is racy, while the work
// units themselves are exact deterministic functions of the database and
// options — pinned by TestVBitModelPinned.
type Stats struct {
	Procs       int
	Classes     int // first-level equivalence classes (frequent items)
	DenseItems  int // columns stored as bitmaps
	SparseItems int // columns stored as tidlists

	// F1Work is the per-processor item-scan work of the counting pass
	// (block partition, like CCPD's iteration 1).
	F1Work []int64
	// PairWork is the per-processor work of the triangular-array pair pass
	// (package pairs; block partition): every item ranked plus every pair
	// counter incremented. Nil when the run skipped the pass — MaxK 1, fewer
	// than two frequent items, or private triangles over the pairs budget,
	// in which case level 1 diffs every pair of class members.
	PairWork []int64
	// BuildWork is the serial fill pass materializing the vertical columns.
	BuildWork int64
	// ClassWork[c] is the DFS work of first-level class c: every kernel
	// word/tid touched while diffing that class's subtree. Written once by
	// the class's claimant, deterministic per class. After a pair pass,
	// level 1 diffs only the pairs the triangle marks frequent.
	ClassWork []int64
	// CountWork is the greedy list-schedule of ClassWork over Procs — the
	// deterministic stand-in for the racy dynamic class assignment.
	CountWork []int64
	// ReduceWork is the k-way merge work (total itemsets merged, k >= 2).
	ReduceWork int64

	Total time.Duration // wall clock, whole run
	Count time.Duration // wall clock, class-DFS phase
}

// TotalWork sums every modelled work unit across processors.
func (s *Stats) TotalWork() int64 {
	w := s.BuildWork + s.ReduceWork
	for _, part := range [][]int64{s.F1Work, s.PairWork, s.ClassWork} {
		for _, v := range part {
			w += v
		}
	}
	return w
}

// ModelTime is the modelled parallel execution time: the critical paths of
// the F1 scan, the pair pass and the scheduled class work, plus the serial
// build and merge.
func (s *Stats) ModelTime() int64 {
	return maxOf(s.F1Work) + maxOf(s.PairWork) + s.BuildWork + maxOf(s.CountWork) + s.ReduceWork
}

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// annotate stamps phase/iteration context onto a contained worker panic.
func annotate(err error, phase string, k int) error {
	var wp *robust.WorkerPanicError
	if errors.As(err, &wp) {
		wp.Phase, wp.K = phase, k
	}
	return err
}

// Mine runs the word-parallel dEclat engine and returns the frequent
// itemsets in the same apriori.Result shape as every other engine, with
// deterministic ordering (ascending itemsets within each k). Cancellation is
// cooperative: the F1 scan polls every ChunkStride transactions, the DFS
// phase polls at every class claim, and a cancelled run returns the partial
// result (every class completed before the cancellation point, merged in
// class order) together with a *robust.CanceledError naming the interrupted
// phase.
//
//armlint:cancellable
func Mine(ctx context.Context, d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	opts = opts.withDefaults()
	start := time.Now() //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	minCount := apriori.Options{MinSupport: opts.MinSupport, AbsSupport: opts.AbsSupport}.MinCount(d.Len())
	rec := opts.Obs
	res := &apriori.Result{MinCount: minCount, ByK: make([][]apriori.FrequentItemset, 2)}
	stats := &Stats{Procs: opts.Procs}

	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}
	pool := sched.NewPool(opts.Procs)
	if rec.Enabled() {
		pool.SetWrap(rec.PoolWrap)
	}
	defer func() {
		if rec.Enabled() {
			pool.SetWrap(nil)
		}
		pool.Close()
	}()

	// Phase 1: parallel item counting (block partition, private arrays).
	rec.SetPhase(obs.PhaseF1, 1)
	rec.BeginPhase(obs.PhaseF1, 1)
	sups, f1work, err := pairs.CountItems(ctx, d, pool, opts.ChunkStride, nil)
	rec.EndPhase(obs.PhaseF1, 1)
	if err != nil {
		return nil, nil, annotate(err, "f1", 1)
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		// Interrupted mid-scan: the counts are partial, nothing is usable.
		return nil, nil, err
	}
	stats.F1Work = f1work
	res.ByK[1] = pairs.FrequentItems(sups, minCount)
	rec.IterStats(1, d.NumItems(), len(res.ByK[1]))
	if opts.MaxK == 1 || len(res.ByK[1]) < 2 {
		stats.Total = time.Since(start) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
		return res, stats, nil
	}

	// Phase 1b: count every frequent pair in one privatized triangular-array
	// pass, so level 1 of the DFS diffs only the frequent pairs instead of
	// all C(|F1|,2). Over the triangle budget the DFS diffs every pair.
	var tri *pairs.Triangle
	if n := len(res.ByK[1]); pairs.Fits(n, opts.Procs, d.Len()) {
		items := make([]itemset.Item, n)
		for i, f := range res.ByK[1] {
			items[i] = f.Items[0]
		}
		rec.SetPhase(obs.PhaseCount, 2)
		rec.BeginPhase(obs.PhaseCount, 2)
		tri, stats.PairWork, err = pairs.Count(ctx, d, pool, items, opts.ChunkStride, nil)
		rec.EndPhase(obs.PhaseCount, 2)
		if err != nil {
			return nil, nil, annotate(err, "count", 2)
		}
		if err := robust.Canceled(ctx, "count", 2); err != nil {
			return res, stats, err
		}
		for p, w := range stats.PairWork {
			rec.Worker(p).AddWork(w)
		}
	}

	// Phase 2: materialize the vertical layout (serial fill; the counting
	// half of the build already ran in parallel above).
	if err := robust.Canceled(ctx, "build", 2); err != nil {
		return res, stats, err
	}
	rec.SetPhase(obs.PhaseTreeBuild, 2)
	rec.BeginPhase(obs.PhaseTreeBuild, 2)
	lay := FromCounts(d, opts.DensityCutoff, minCount, sups)
	rec.EndPhase(obs.PhaseTreeBuild, 2)
	stats.BuildWork = d.TotalItems() * WorkItemScan
	stats.DenseItems = lay.denseItems
	stats.SparseItems = lay.sparseItems

	heads := make([]head, len(res.ByK[1]))
	for i, f := range res.ByK[1] {
		heads[i] = head{item: f.Items[0], sup: f.Count, s: lay.sets[f.Items[0]]}
	}
	stats.Classes = len(heads)

	// Phase 3: per-equivalence-class dEclat DFS on the shared pool. Classes
	// are claimed dynamically through an atomic cursor; each class's result
	// lists and work total are written once by its claimant.
	rec.SetPhase(obs.PhaseCount, 2)
	rec.BeginPhase(obs.PhaseCount, 2)
	tCount := time.Now() //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	classWork := make([]int64, len(heads))
	classDone := make([]bool, len(heads))
	classOut := make([][][]apriori.FrequentItemset, len(heads))
	cur := sched.NewCursor(len(heads))
	err = pool.Run(func(p int) {
		t := newTask(lay, tri, minCount, opts.MaxK, len(heads))
		var ow *obs.Worker
		if rec.Enabled() {
			ow = rec.Worker(p)
		}
		for ctx == nil || ctx.Err() == nil {
			c, ok := cur.Next()
			if !ok {
				return
			}
			pool.NoteChunk(p, c)
			ow.BeginChunk(2, c)
			t.work = 0
			classOut[c] = t.mineClass(heads, c)
			classWork[c] = t.work
			classDone[c] = true
			ow.EndChunk(2, c)
			ow.AddWork(t.work)
		}
	})
	rec.EndPhase(obs.PhaseCount, 2)
	stats.Count = time.Since(tCount) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	if err != nil {
		return nil, nil, annotate(err, "count", 2)
	}
	stats.ClassWork = classWork
	stats.CountWork = sched.GreedySchedule(classWork, opts.Procs)

	// Phase 4: merge per-class per-k lists in class order. Each class emits
	// its k-sets in ascending order and classes own disjoint ascending
	// prefix ranges, so the k-way merge yields the deterministic global
	// ordering every engine shares.
	rec.SetPhase(obs.PhaseReduce, 2)
	rec.BeginPhase(obs.PhaseReduce, 2)
	for k := 2; ; k++ {
		var ranges [][]apriori.FrequentItemset
		for c := range classOut {
			if classDone[c] && k < len(classOut[c]) && len(classOut[c][k]) > 0 {
				ranges = append(ranges, classOut[c][k])
			}
		}
		if len(ranges) == 0 {
			break
		}
		fk := apriori.MergeFrequent(ranges)
		res.ByK = append(res.ByK, fk)
		stats.ReduceWork += int64(len(fk))
		cands := len(fk)
		if k == 2 && tri != nil {
			cands = tri.Cells()
		}
		rec.IterStats(k, cands, len(fk))
	}
	rec.EndPhase(obs.PhaseReduce, 2)
	stats.Total = time.Since(start) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model

	if err := robust.Canceled(ctx, "count", 2); err != nil {
		return res, stats, err
	}
	return res, stats, nil
}

// head is one first-level class anchor: a frequent item with its tidset.
type head struct {
	item itemset.Item
	sup  int64
	s    set
}

// node is one class member during the DFS: the extension item, its
// support, and its stored set — a tidset at level 1, a diffset below.
type node struct {
	item itemset.Item
	sup  int64
	s    set
}

// task is one worker's DFS state, reused across the classes it claims.
// Scratch buffers are caller-provided to the kernels (never allocated in
// the hot path); the per-class output arena is fresh per class because the
// emitted itemsets alias it.
type task struct {
	lay      *Layout
	tri      *pairs.Triangle // pair counts over head ranks; nil: diff every pair
	scr      *Scratch
	minCount int64
	maxK     int
	work     int64

	pfx   []itemset.Item // prefix stack, pfx[:depth] is the current prefix
	arena []itemset.Item // per-class backing store for emitted itemsets
	out   [][]apriori.FrequentItemset
}

func newTask(lay *Layout, tri *pairs.Triangle, minCount int64, maxK, maxDepth int) *task {
	return &task{
		lay:      lay,
		tri:      tri,
		scr:      lay.NewScratch(),
		minCount: minCount,
		maxK:     maxK,
		pfx:      make([]itemset.Item, maxDepth+1),
	}
}

// mineClass runs dEclat on the class anchored at heads[c] with tails
// heads[c+1:], returning per-k result lists (index k, entries 0 and 1 nil).
func (t *task) mineClass(heads []head, c int) [][]apriori.FrequentItemset {
	t.out = make([][]apriori.FrequentItemset, 2)
	t.arena = nil
	anchor := heads[c]
	t.pfx[0] = anchor.item
	if t.maxK == 1 {
		return t.out
	}
	// Level 2: diffsets against the anchor's tidset, d(ab) = t(a) \ t(b),
	// sup(ab) = sup(a) − |d(ab)|. Heads are F1 in item order, so head
	// indexes are the triangle's ranks: a pair it counted below minCount is
	// skipped without touching either set.
	var children []node
	for j := c + 1; j < len(heads); j++ {
		if t.tri != nil && t.tri.Support(c, j) < t.minCount {
			continue
		}
		card, words, n := t.diffInto(anchor.s, heads[j].s)
		sup := anchor.sup - card
		if sup >= t.minCount {
			children = append(children, node{item: heads[j].item, sup: sup, s: t.persist(card, words, n)})
		}
	}
	if len(children) > 0 {
		t.grow(1, children)
	}
	return t.out
}

// grow emits every member of the class prefix pfx[:depth] × nodes and
// recurses: extending member a by member b (a < b) has diffset d(P·a·b) =
// d(P·b) \ d(P·a) and support sup(P·a) − |d(P·a·b)| — Zaki's dEclat
// recurrence, which keeps shrinking the sets the deeper the DFS goes.
func (t *task) grow(depth int, nodes []node) {
	k := depth + 1
	for a := range nodes {
		t.emit(depth, nodes[a].item, nodes[a].sup)
		if t.maxK > 0 && k+1 > t.maxK {
			continue
		}
		if a == len(nodes)-1 {
			continue
		}
		var next []node
		for b := a + 1; b < len(nodes); b++ {
			card, words, n := t.diffInto(nodes[b].s, nodes[a].s)
			sup := nodes[a].sup - card
			if sup >= t.minCount {
				next = append(next, node{item: nodes[b].item, sup: sup, s: t.persist(card, words, n)})
			}
		}
		if len(next) > 0 {
			t.pfx[depth] = nodes[a].item
			t.grow(depth+1, next)
		}
	}
}

// emit records pfx[:depth] + item as a frequent (depth+1)-set. The items
// are appended to the class arena; re-slicing with a capped capacity keeps
// later appends from aliasing earlier itemsets.
func (t *task) emit(depth int, item itemset.Item, sup int64) {
	k := depth + 1
	n := len(t.arena)
	t.arena = append(t.arena, t.pfx[:depth]...)
	t.arena = append(t.arena, item)
	items := itemset.Itemset(t.arena[n : n+k : n+k])
	for len(t.out) <= k {
		t.out = append(t.out, nil)
	}
	t.out[k] = append(t.out[k], apriori.FrequentItemset{Items: items, Count: sup})
}

// diffInto computes x \ y into the scratch buffers, dispatching on the four
// representation pairs, and returns the cardinality plus where the result
// lives (words: scr.Words; otherwise scr.A[:n]). Work units are the slice
// lengths each kernel touches.
func (t *task) diffInto(x, y set) (card int64, words bool, n int) {
	switch {
	case x.dense() && y.dense():
		t.work += int64(t.lay.Words) * WorkWordOp
		return AndNotInto(t.scr.Words, x.words, y.words), true, 0
	case x.dense():
		copy(t.scr.Words, x.words)
		cleared := ClearList(t.scr.Words, y.list)
		t.work += int64(t.lay.Words)*WorkWordOp + int64(len(y.list))*WorkTidOp
		return x.card - cleared, true, 0
	case y.dense():
		n = FilterInto(t.scr.A, x.list, y.words, false)
		t.work += int64(len(x.list)) * WorkTidOp
		return int64(n), false, n
	default:
		n = DiffInto(t.scr.A, x.list, y.list)
		t.work += int64(len(x.list)+len(y.list)) * WorkTidOp
		return int64(n), false, n
	}
}

// persist copies a scratch-resident diffset into its long-lived form. A
// word-form result whose cardinality has dropped below one tid per word is
// demoted to a sorted tidlist (the diffset switch-over rule): from there
// on this subtree's kernels run in tidlist mode, matching the memory the
// set actually occupies rather than the full bitmap width.
func (t *task) persist(card int64, words bool, n int) set {
	if words {
		if card >= int64(t.lay.Words) {
			out := make([]uint64, t.lay.Words)
			copy(out, t.scr.Words)
			return set{words: out, card: card}
		}
		m := ExtractInto(t.scr.A, t.scr.Words)
		t.work += int64(t.lay.Words)*WorkWordOp + int64(m)*WorkTidOp
		out := make([]int32, m)
		copy(out, t.scr.A)
		return set{list: out, card: card}
	}
	out := make([]int32, n)
	copy(out, t.scr.A[:n])
	return set{list: out, card: card}
}
