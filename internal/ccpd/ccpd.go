// Package ccpd implements the paper's shared-memory parallel association
// mining algorithms: CCPD (Common Candidate Partitioned Database — a shared
// hash tree built in parallel with per-node locks, the database logically
// split across processors) and PCCD (Partitioned Candidate Common Database —
// per-processor local trees, every processor scanning the whole database).
// Computation balancing for candidate generation (Section 3.1.2), adaptive
// parallelism (Section 3.1.3), database partitioning (Section 3.2.2) and the
// counter update modes of Section 5.2 are all selectable.
//
// The package also carries the robustness layer of the production story:
// cooperative cancellation (Mine takes a context), worker panic containment (a panic in
// any phase surfaces as a *robust.WorkerPanicError instead of killing the
// process), per-iteration checkpointing with bit-identical resume (Resume),
// and memory-budget candidate batching (Options.MaxCandidatesInMemory) for
// candidate sets larger than memory — the classic limited-memory Apriori
// regime of multiple database passes per iteration.
package ccpd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/partition"
	"repro/internal/robust"
	"repro/internal/robust/faultinj"
	"repro/internal/sched"
)

// BalanceScheme selects the candidate-generation partitioning of
// Section 3.1.2.
type BalanceScheme int

const (
	// BalanceBlock is the naive contiguous split (the unoptimized base).
	BalanceBlock BalanceScheme = iota
	// BalanceInterleaved assigns unit i to processor i mod P.
	BalanceInterleaved
	// BalanceBitonic is the greedy bitonic scheme over all equivalence
	// classes (the COMP optimization).
	BalanceBitonic
)

func (b BalanceScheme) String() string {
	switch b {
	case BalanceInterleaved:
		return "interleaved"
	case BalanceBitonic:
		return "bitonic"
	}
	return "block"
}

// DBPartition selects how the database is split for counting.
type DBPartition int

const (
	// PartitionBlock splits by equal transaction counts.
	PartitionBlock DBPartition = iota
	// PartitionWorkload splits by the estimated Σ C(|t|,k)/T counting cost
	// (the static heuristic of Section 3.2.2).
	PartitionWorkload
	// PartitionDynamic cuts the database into cache-sized transaction
	// chunks claimed from a shared atomic cursor: no processor idles until
	// fewer than P chunks remain, bounding load imbalance by one chunk's
	// work regardless of transaction-size skew.
	PartitionDynamic
	// PartitionStealing seeds each processor's deque with a contiguous
	// chunk block (cache- and model-equivalent to PartitionBlock when
	// balanced) and lets idle processors steal from the front of a
	// straggler's block.
	PartitionStealing
)

func (p DBPartition) String() string {
	switch p {
	case PartitionWorkload:
		return "workload"
	case PartitionDynamic:
		return "dynamic"
	case PartitionStealing:
		return "stealing"
	}
	return "block"
}

// Dynamic reports whether the partition mode claims chunks at runtime
// rather than fixing per-processor transaction ranges up front.
func (p DBPartition) Dynamic() bool {
	return p == PartitionDynamic || p == PartitionStealing
}

// Options configures a parallel run.
type Options struct {
	apriori.Options

	// Procs is the number of worker goroutines ("processors").
	Procs int
	// Counter selects the shared-counter update mode.
	Counter hashtree.CounterMode
	// Balance selects candidate-generation computation balancing.
	Balance BalanceScheme
	// DBPart selects the counting-phase database split.
	DBPart DBPartition
	// AdaptiveMinUnits is the Section 3.1.3 adaptive-parallelism cutoff:
	// when F_{k-1} has fewer join units than this, candidate generation
	// runs sequentially (parallelization overhead would dominate).
	// 0 uses 4×Procs.
	AdaptiveMinUnits int
	// ChunkSize is the transactions-per-chunk granularity of the dynamic
	// partition modes: small enough that a few hundred transactions fit in
	// cache and bound the end-of-phase imbalance, large enough that one
	// cursor claim or deque operation is noise against counting the chunk.
	// It is also the stride at which static-partition workers poll for
	// cancellation. 0 uses 256.
	ChunkSize int
	// Obs, when non-nil, records phase spans, chunk claims, steals and
	// counter flushes for trace/metrics export, and labels the pool workers
	// for pprof. Nil disables recording: every obs call site nil-checks and
	// returns, so the counting kernel keeps its zero-allocation guarantee.
	Obs *obs.Recorder
	// Checkpoint, when non-empty, writes a versioned binary snapshot of the
	// run (frequent sets + deterministic work model) to this path after
	// every completed iteration, atomically (temp file + rename). A killed
	// run continues bit-identically via Resume. "" disables checkpointing.
	Checkpoint string
	// FaultInj, when non-nil, enables the fault-injection harness at
	// phase/chunk granularity — tests and CI smoke only; a nil injector
	// compiles to a nil check at every site.
	FaultInj *faultinj.Injector
	// PairPass counts iteration 2 of an in-RAM run (Mine, Resume, MinePCCD)
	// with the shared triangular-array pass of package pairs instead of
	// generating, building and counting the C(|F1|,2) hash-tree candidates.
	// The frequent sets are identical; the work model is not, so the zero
	// value keeps the paper's hash tree for the figure regeneration and the
	// pinned model totals. Segmented runs, and runs whose private triangles
	// exceed the pairs budget, use the hash tree regardless.
	PairPass bool
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 8
	}
	if o.Procs < 1 {
		o.Procs = 1
	}
	if o.AdaptiveMinUnits == 0 {
		o.AdaptiveMinUnits = 4 * o.Procs
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 256
	}
	return o
}

// fingerprint hashes the options that determine the run's output and work
// model, so Resume can refuse a checkpoint recorded under different
// settings. MaxK is deliberately excluded (resuming with a larger bound
// extends a run), as are Checkpoint, Obs and FaultInj (observation and
// harness knobs, not model inputs).
func (o Options) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(o.MinSupport))
	put(uint64(o.AbsSupport))
	put(uint64(o.Threshold))
	put(uint64(o.Fanout))
	put(uint64(o.Hash))
	putBool := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	putBool(o.ShortCircuit)
	putBool(o.NaiveJoin)
	put(uint64(o.MaxCandidatesInMemory))
	put(uint64(o.Procs))
	put(uint64(o.Counter))
	put(uint64(o.Balance))
	put(uint64(o.DBPart))
	put(uint64(o.AdaptiveMinUnits))
	put(uint64(o.ChunkSize))
	// Hashed only when set, so checkpoints of hash-tree runs keep the
	// fingerprint they had before the option existed.
	if o.PairPass {
		put(1)
	}
	return h.Sum64()
}

// PhaseTiming records wall-clock and modelled work per phase of one
// iteration. The Work fields count deterministic work units (see the
// hashtree cost model); on hosts without enough real cores the harness uses
// max-over-processors work as the parallel time model.
type PhaseTiming struct {
	K          int
	CandGen    time.Duration // join + prune
	TreeBuild  time.Duration // parallel insert
	Count      time.Duration // support counting
	Reduce     time.Duration // counter reduction + frequent extraction
	Candidates int
	Frequent   int
	// GenSequential reports whether adaptive parallelism chose a
	// sequential candidate generation this iteration.
	GenSequential bool
	// Batches is how many candidate batches the iteration was split into
	// under Options.MaxCandidatesInMemory (1 = everything fit in one tree;
	// each batch pays a full database pass).
	Batches int

	// GenWork[p] is processor p's candidate-generation work; for a
	// sequential generation all work lands on processor 0.
	GenWork []int64
	// CountWork[p] is processor p's support-counting work (summed over
	// candidate batches when the iteration was batched).
	CountWork []int64
	// BuildWork is the total tree-insertion work (parallelized evenly).
	BuildWork int64
	// ReduceWork is the master's serial reduction/extraction work.
	ReduceWork int64

	// ChunksClaimed[p] is how many counting chunks processor p claimed
	// under a dynamic partition mode (nil for static modes). The values
	// sum to the chunk count of the iteration (times the batch count when
	// batched).
	ChunksClaimed []int64
	// Steals[p] counts the chunks processor p took from another
	// processor's deque (PartitionStealing only; zero for the cursor mode,
	// whose shared queue has no owner to steal from).
	Steals []int64
	// CountIdle is the summed wall-clock idle time of the counting phase:
	// Σ_p (slowest processor's counting time − processor p's). On a host
	// with fewer real cores than Procs this is scheduling noise; the
	// modelled IdleWork is the meaningful figure there.
	CountIdle time.Duration
}

// IdleWork returns the modelled counting idle: the work units processors
// spend waiting for the slowest one, Σ_p (max CountWork − CountWork[p]).
// A perfectly balanced phase has zero idle work.
func (pt *PhaseTiming) IdleWork() int64 {
	m := maxOf(pt.CountWork)
	var idle int64
	for _, w := range pt.CountWork {
		idle += m - w
	}
	return idle
}

// ModelTime returns the modelled parallel time of the iteration: serial
// reduce plus the per-processor maxima of the parallel phases.
func (pt *PhaseTiming) ModelTime(procs int) int64 {
	var t int64
	t += maxOf(pt.GenWork)
	if procs > 0 {
		t += pt.BuildWork / int64(procs)
	}
	t += maxOf(pt.CountWork)
	t += pt.ReduceWork
	return t
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

// Stats aggregates a run.
type Stats struct {
	Procs   int
	PerIter []PhaseTiming
	Total   time.Duration
	// OutOfCore carries the segment pipeline's accounting (loads, stalls,
	// prefetch overlap) when the run was mined from a segmented store via
	// MineSegmented; nil for in-RAM runs.
	OutOfCore *seg.PipelineStats
}

// ModelTime sums the per-iteration modelled parallel times.
func (s *Stats) ModelTime() int64 {
	var t int64
	for i := range s.PerIter {
		t += s.PerIter[i].ModelTime(s.Procs)
	}
	return t
}

// TotalCount returns the summed counting time (the phase the paper reports
// dominates at ~85%).
func (s *Stats) TotalCount() time.Duration {
	var t time.Duration
	for _, it := range s.PerIter {
		t += it.Count
	}
	return t
}

// CountIdleWork sums the modelled counting idle work over all iterations —
// the figure the static-vs-dynamic scheduling experiments gate on.
func (s *Stats) CountIdleWork() int64 {
	var t int64
	for i := range s.PerIter {
		t += s.PerIter[i].IdleWork()
	}
	return t
}

// TotalSteals sums the cross-processor chunk steals over all iterations.
func (s *Stats) TotalSteals() int64 {
	var t int64
	for i := range s.PerIter {
		for _, v := range s.PerIter[i].Steals {
			t += v
		}
	}
	return t
}

// miner is the per-run state shared by Mine, MineSegmented and Resume:
// the data source (in-RAM database or segmented store), resolved options,
// persistent pool, recorder, and the result/stats being accumulated.
type miner struct {
	d        *db.Database // in-RAM source; nil for out-of-core runs
	src      *segSource   // segmented source; nil for in-RAM runs
	opts     Options
	pool     *sched.Pool
	rec      *obs.Recorder
	fi       *faultinj.Injector
	minCount int64
	labels   []int32
	res      *apriori.Result
	stats    *Stats
	ckpts    int // checkpoints written (exported as a gauge)
}

// numItems returns the item universe size of whichever source backs the run.
func (m *miner) numItems() int {
	if m.src != nil {
		return m.src.r.NumItems()
	}
	return m.d.NumItems()
}

// newMiner builds the in-RAM run state; the returned cleanup must run when
// the mine completes (it unhooks the recorder and closes the pool).
func newMiner(d *db.Database, opts Options) (*miner, func()) {
	m := &miner{
		d: d, opts: opts, fi: opts.FaultInj,
		minCount: opts.MinCount(d.Len()),
		rec:      opts.Obs,
	}
	return m, m.setupPool()
}

// setupPool attaches the persistent worker pool — the P "processors" of the
// paper's model, serving every phase of every iteration without per-phase
// goroutine spawn and teardown — and returns its cleanup.
func (m *miner) setupPool() func() {
	m.pool = sched.NewPool(m.opts.Procs)
	if m.rec.Enabled() {
		m.pool.SetWrap(m.rec.PoolWrap)
	}
	return func() {
		if m.rec.Enabled() {
			m.pool.SetWrap(nil)
		}
		m.pool.Close()
	}
}

// annotate stamps phase/iteration context onto a contained worker panic, so
// the error from Mine names where the worker died.
func annotate(err error, phase string, k int) error {
	var wp *robust.WorkerPanicError
	if errors.As(err, &wp) {
		wp.Phase, wp.K = phase, k
	}
	return err
}

// Mine runs CCPD on the database and returns the frequent itemsets plus
// per-phase timings. Cancellation is cooperative: workers observe ctx at
// chunk boundaries (dynamic modes) or every ChunkSize transactions (static
// modes), the current phase drains promptly, and the call returns the partial result — every iteration completed before the
// cancellation point — together with a *robust.CanceledError naming the
// interrupted phase. A worker panic in any phase is contained by the pool
// and returned as a *robust.WorkerPanicError; the process stays alive.
//
//armlint:cancellable
func Mine(ctx context.Context, d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	m, cleanup := newMiner(d, opts)
	defer cleanup()
	return m.mine(ctx, start)
}

// mine is the full run, shared by the in-RAM and out-of-core entry points:
// iteration 1, then the k-loop until fixpoint.
func (m *miner) mine(ctx context.Context, start time.Time) (*apriori.Result, *Stats, error) {
	opts := m.opts
	m.res = &apriori.Result{MinCount: m.minCount, ByK: make([][]apriori.FrequentItemset, 2)}
	m.stats = &Stats{Procs: opts.Procs}

	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}

	// Iteration 1: parallel item counting with private arrays + reduction.
	t0 := time.Now()
	m.rec.SetPhase(obs.PhaseF1, 1)
	m.rec.BeginPhase(obs.PhaseF1, 1)
	f1, f1Work, err := m.frequentOne(ctx)
	m.rec.EndPhase(obs.PhaseF1, 1)
	if err != nil {
		return nil, nil, annotate(err, "f1", 1)
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		// The pass was interrupted: its counts are partial, so there is no
		// usable partial result yet.
		return nil, nil, err
	}
	m.res.ByK[1] = f1
	numItems := m.numItems()
	it1 := PhaseTiming{
		K: 1, Count: time.Since(t0), Candidates: numItems, Frequent: len(f1),
		CountWork: f1Work, Batches: 1,
	}
	it1.ReduceWork = int64(numItems)
	m.stats.PerIter = append(m.stats.PerIter, it1)
	m.rec.IterStats(1, numItems, len(f1))
	m.labels = apriori.LabelsFromF1(f1, numItems)
	if err := m.checkpoint(2, false); err != nil {
		return nil, nil, err
	}

	prev := make([]itemset.Itemset, len(f1))
	for i, f := range f1 {
		prev[i] = f.Items
	}

	err = m.loop(ctx, 2, prev)
	m.stats.Total = time.Since(start)
	if m.src != nil {
		ps := m.src.pipe.Stats()
		m.stats.OutOfCore = &ps
		m.rec.SetGauge("armine_ooc_segments_streamed", float64(ps.Segments))
		m.rec.SetGauge("armine_ooc_stall_fraction", ps.StallFraction())
	}
	return m.finish(err)
}

// frequentOne runs iteration 1 on whichever source backs the run, returning
// F1 together with its modelled per-processor counting work.
func (m *miner) frequentOne(ctx context.Context) ([]apriori.FrequentItemset, []int64, error) {
	if m.src != nil {
		return m.src.frequentOne(ctx, m)
	}
	f1, err := parallelFrequentOne(ctx, m.d, m.minCount, m.pool, m.fi, m.opts.ChunkSize)
	if err != nil {
		return nil, nil, err
	}
	return f1, iterOneCountWork(m.d, m.opts), nil
}

// finish maps the loop's error to the Mine return contract: cancellation
// returns the partial result alongside the error; a worker panic or
// infrastructure failure returns the error alone.
func (m *miner) finish(err error) (*apriori.Result, *Stats, error) {
	if err == nil {
		return m.res, m.stats, nil
	}
	var ce *robust.CanceledError
	if errors.As(err, &ce) {
		return m.res, m.stats, err
	}
	return nil, nil, err
}

// loop runs iterations startK, startK+1, … until fixpoint, MaxK or error.
// prev holds F_{startK-1}.
func (m *miner) loop(ctx context.Context, startK int, prev []itemset.Itemset) error {
	opts := m.opts
	for k := startK; len(prev) > 0 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		fk, stop, err := m.iterate(ctx, k, prev)
		if err != nil {
			return err
		}
		if stop {
			// No candidates: the natural fixpoint. Record it in the
			// checkpoint so a resume returns immediately.
			return m.checkpoint(k, true)
		}
		m.res.ByK = append(m.res.ByK, fk)
		if err := m.checkpoint(k+1, false); err != nil {
			return err
		}
		prev = prev[:0]
		for _, f := range fk {
			prev = append(prev, f.Items)
		}
	}
	if len(prev) == 0 {
		// The last iteration produced no frequent sets — also a fixpoint.
		// (A MaxK exit is deliberately not marked done: resuming with a
		// larger bound continues the run.)
		return m.checkpoint(len(m.res.ByK), true)
	}
	return nil
}

// iterate runs one k-iteration: candidate generation, then per-batch tree
// build / count / extract. stop reports the no-candidates fixpoint.
func (m *miner) iterate(ctx context.Context, k int, prev []itemset.Itemset) (fk []apriori.FrequentItemset, stop bool, err error) {
	opts := m.opts
	var pt PhaseTiming
	pt.K = k

	if err := robust.Canceled(ctx, "gen", k); err != nil {
		return nil, false, err
	}
	if k == 2 && m.src == nil {
		fk, pt, ok, err := pairIteration(ctx, m.d, m.pool, opts, m.minCount, prev)
		if err != nil {
			return nil, false, err
		}
		if ok {
			m.stats.PerIter = append(m.stats.PerIter, pt)
			return fk, false, nil
		}
	}
	t0 := time.Now()
	m.rec.SetPhase(obs.PhaseCandGen, k)
	m.rec.BeginPhase(obs.PhaseCandGen, k)
	cands, seq, genWork, err := generateParallel(prev, opts, m.pool)
	m.rec.EndPhase(obs.PhaseCandGen, k)
	if err != nil {
		return nil, false, annotate(err, "gen", k)
	}
	pt.CandGen = time.Since(t0)
	pt.GenSequential = seq
	pt.GenWork = genWork
	pt.Candidates = len(cands)
	pt.BuildWork = int64(len(cands)) * hashtree.WorkInsert
	if len(cands) == 0 {
		m.rec.IterStats(k, 0, 0)
		m.stats.PerIter = append(m.stats.PerIter, pt)
		return nil, true, nil
	}

	// Memory-budget batching: when the candidate set exceeds the in-memory
	// budget, build/count/extract contiguous lexicographic sub-ranges, one
	// database pass each. Each batch's frequent list covers a disjoint,
	// ascending lexicographic range, so plain concatenation reproduces the
	// unbatched output bit-identically.
	batchSize := len(cands)
	if lim := opts.MaxCandidatesInMemory; lim > 0 && lim < batchSize {
		batchSize = lim
	}
	numBatches := (len(cands) + batchSize - 1) / batchSize
	pt.Batches = numBatches
	for b := 0; b < numBatches; b++ {
		lo := b * batchSize
		hi := lo + batchSize
		if hi > len(cands) {
			hi = len(cands)
		}
		bfk, err := m.buildCountExtract(ctx, k, cands[lo:hi], &pt)
		if err != nil {
			m.stats.PerIter = append(m.stats.PerIter, pt)
			return nil, false, err
		}
		fk = append(fk, bfk...)
	}
	if numBatches > 1 {
		m.rec.SetGauge(fmt.Sprintf("armine_candidate_batches{k=%q}", fmt.Sprint(k)), float64(numBatches))
	}
	pt.Frequent = len(fk)
	m.rec.IterStats(k, len(cands), len(fk))
	m.stats.PerIter = append(m.stats.PerIter, pt)
	return fk, false, nil
}

// buildCountExtract builds the hash tree over one candidate batch, counts
// the whole database against it, and extracts its frequent itemsets,
// accumulating work-model figures into pt.
func (m *miner) buildCountExtract(ctx context.Context, k int, cands []itemset.Itemset, pt *PhaseTiming) ([]apriori.FrequentItemset, error) {
	opts := m.opts
	if err := robust.Canceled(ctx, "build", k); err != nil {
		return nil, err
	}
	// The build phase's injection sites live inside ParallelBuildOn's
	// closures, which the harness cannot reach; when injection is active an
	// extra (test-only) barrier exposes a per-worker build site.
	if m.fi != nil {
		if err := m.pool.Run(func(p int) { m.fi.Fire("build", k, p, -1) }); err != nil {
			return nil, annotate(err, "build", k)
		}
	}
	t0 := time.Now()
	cfg := hashtree.Config{
		K: k, Fanout: opts.Fanout, Threshold: opts.Threshold,
		Hash: opts.Hash, NumItems: m.numItems(), Labels: m.labels,
	}
	m.rec.SetPhase(obs.PhaseTreeBuild, k)
	m.rec.BeginPhase(obs.PhaseTreeBuild, k)
	tree, err := hashtree.ParallelBuildOn(m.pool, cfg, cands)
	m.rec.EndPhase(obs.PhaseTreeBuild, k)
	if err != nil {
		return nil, annotate(fmt.Errorf("ccpd: iteration %d: %w", k, err), "build", k)
	}
	pt.TreeBuild += time.Since(t0)

	t0 = time.Now()
	counters := hashtree.NewCounters(opts.Counter, tree.NumCandidates(), opts.Procs)
	m.rec.SetPhase(obs.PhaseCount, k)
	m.rec.BeginPhase(obs.PhaseCount, k)
	var cr countResult
	if m.src != nil {
		cr, err = m.src.countPhase(ctx, m, tree, counters, k)
	} else {
		cr, err = countPhase(ctx, m.d, tree, counters, opts, k, m.pool)
	}
	m.rec.EndPhase(obs.PhaseCount, k)
	if err != nil {
		return nil, annotate(err, "count", k)
	}
	pt.Count += time.Since(t0)
	pt.CountIdle += cr.Idle
	m.rec.AddIdle(cr.Idle)
	pt.CountWork = addVec(pt.CountWork, cr.Work)
	pt.ChunksClaimed = addVec(pt.ChunksClaimed, cr.Claimed)
	pt.Steals = addVec(pt.Steals, cr.Steals)
	if err := robust.Canceled(ctx, "count", k); err != nil {
		return nil, err
	}

	// Reduction and frequent selection, range-partitioned across the
	// pool. Candidate ids are extracted in disjoint ascending ranges,
	// each sorted locally, then k-way merged — the output order is
	// identical to the serial extract. ReduceWork stays the serial
	// model figure: the paper's master-phase cost is what the time
	// model pins, independent of how the wall clock is spent.
	t0 = time.Now()
	nc := tree.NumCandidates()
	ranges := make([][]apriori.FrequentItemset, opts.Procs)
	m.rec.SetPhase(obs.PhaseReduce, k)
	m.rec.BeginPhase(obs.PhaseReduce, k)
	err = m.pool.Run(func(p int) {
		m.fi.Fire("reduce", k, p, -1)
		lo, hi := splitRange(p, opts.Procs, nc)
		counters.ReduceRange(lo, hi)
		ranges[p] = apriori.ExtractFrequentRange(tree, counters, m.minCount, lo, hi)
	})
	m.rec.EndPhase(obs.PhaseReduce, k)
	if err != nil {
		return nil, annotate(err, "reduce", k)
	}
	fk := apriori.MergeFrequent(ranges)
	pt.Reduce += time.Since(t0)
	pt.ReduceWork += int64(len(cands))
	return fk, nil
}

// addVec element-wise adds b into a (allocating a when nil). A nil b leaves
// a unchanged, so static modes keep nil ChunksClaimed/Steals.
func addVec(a, b []int64) []int64 {
	if b == nil {
		return a
	}
	if a == nil {
		a = make([]int64, len(b))
	}
	for i := range b {
		a[i] += b[i]
	}
	return a
}

// splitRange returns the half-open sub-range [lo, hi) of [0, n) handled by
// processor p of procs. The products run in int64 end-to-end: the former
// int32(p*n/procs) form multiplied in int first and truncated on conversion,
// which for candidate counts within a factor of procs of 2^31 corrupted the
// reduce fan-out boundaries.
func splitRange(p, procs, n int) (lo, hi int) {
	lo = int(int64(p) * int64(n) / int64(procs))
	hi = int(int64(p+1) * int64(n) / int64(procs))
	return lo, hi
}

// iterOneCountWork models the per-processor work of the iteration-1 item
// counting pass under the selected partition mode. The pass itself always
// runs block-partitioned with private count arrays (parallelFrequentOne) —
// item counting has no hash-tree walk to balance — but the *model* must
// follow opts.DBPart: attributing block-partition work to a workload or
// dynamic run misstated per-processor CountWork and every idle/balance
// figure derived from it. Dynamic modes use the same deterministic greedy
// list-schedule over per-chunk work that countPhase reports, so k=1 and k≥2
// figures are attributed consistently.
func iterOneCountWork(d *db.Database, opts Options) []int64 {
	if opts.DBPart.Dynamic() {
		n := d.Len()
		numChunks := sched.NumChunks(n, opts.ChunkSize)
		chunkWork := make([]int64, numChunks)
		//armlint:allow ctxpoll bounded per-chunk estimation before the phase starts; cancellation is observed at the phase boundary
		for c := range chunkWork {
			lo, hi := sched.ChunkRange(n, opts.ChunkSize, c)
			s := db.Slice{DB: d, Lo: lo, Hi: hi}
			chunkWork[c] = s.EstimatedWork(1) * hashtree.WorkItemScan
		}
		return sched.GreedySchedule(chunkWork, opts.Procs)
	}
	work := make([]int64, opts.Procs)
	var slices []db.Slice
	if opts.DBPart == PartitionWorkload {
		slices = d.WorkloadPartition(opts.Procs, 1)
	} else {
		slices = d.BlockPartition(opts.Procs)
	}
	//armlint:allow ctxpoll bounded per-slice estimation before the phase starts; cancellation is observed at the phase boundary
	for p, s := range slices {
		work[p] = s.EstimatedWork(1) * hashtree.WorkItemScan
	}
	return work
}

// newCountCtxFn builds the per-worker CountCtx factory shared by the in-RAM
// and out-of-core counting phases.
func newCountCtxFn(tree *hashtree.Tree, counters *hashtree.Counters, opts Options, k int) func(p int) *hashtree.CountCtx {
	rec := opts.Obs
	return func(p int) *hashtree.CountCtx {
		co := hashtree.CountOpts{
			ShortCircuit: opts.ShortCircuit, Proc: p,
			// Batch shared-counter updates to cut lock/atomic contention
			// on hot candidates (no-op for private mode).
			BatchUpdates: true,
		}
		// The flush hook is a bound method on the worker's padded obs
		// record: one closure per (worker, iteration), nothing per
		// transaction, and absent entirely when recording is off so the
		// kernel's zero-allocation path is untouched.
		if ow := rec.Worker(p); ow != nil {
			co.OnFlush = func(n int) { ow.Flush(k, n) }
		}
		return tree.NewCountCtx(counters, co)
	}
}

// countResult is one counting pass's deterministic accounting: per-processor
// work, chunk claims/steals (dynamic modes) and wall-clock idle.
type countResult struct {
	Work    []int64
	Claimed []int64
	Steals  []int64
	Idle    time.Duration
}

// countPhase runs the support-counting phase on the pool and returns its
// accounting.
//
// Static modes count fixed per-processor slices as before, polling for
// cancellation every ChunkSize transactions. Dynamic modes cut the database
// into ChunkSize-transaction chunks claimed at runtime (atomic cursor, or
// seeded deques with stealing), checking the context at each claim; the racy
// runtime assignment makes the observed per-processor work non-reproducible,
// so CountWork is instead the deterministic greedy list-schedule over the
// per-chunk work units — reproducible across runs, and summing
// bit-identically to any static split because per-transaction work does not
// depend on who counts it.
func countPhase(ctx context.Context, d *db.Database, tree *hashtree.Tree, counters *hashtree.Counters, opts Options, k int, pool *sched.Pool) (countResult, error) {
	procs := opts.Procs
	rec := opts.Obs
	fi := opts.FaultInj
	// Workers accumulate into cache-line padded sched.PerWorker records, so
	// live increments never invalidate a neighbour's line; the bare int64
	// timing slices (eight counters per line) are filled in only after the
	// pool barrier.
	acc := make([]sched.PerWorker, procs)
	newCtx := newCountCtxFn(tree, counters, opts, k)

	if !opts.DBPart.Dynamic() {
		var slices []db.Slice
		if opts.DBPart == PartitionWorkload {
			slices = d.WorkloadPartition(procs, k)
		} else {
			slices = d.BlockPartition(procs)
		}
		err := pool.Run(func(p int) {
			t0 := time.Now()
			fi.Fire("count", k, p, -1)
			ctxc := newCtx(p)
			s := slices[p]
			for i := s.Lo; i < s.Hi; i++ {
				// Poll for cancellation once per ChunkSize transactions —
				// the same promptness bound the dynamic modes get per
				// chunk claim, without a context check in the kernel loop.
				if (i-s.Lo)%opts.ChunkSize == 0 && ctx.Err() != nil {
					break
				}
				ctxc.CountTransaction(d.Items(i))
			}
			ctxc.Flush()
			rec.Worker(p).AddWork(ctxc.Work)
			acc[p].Work = ctxc.Work
			acc[p].ElapsedNS = time.Since(t0).Nanoseconds()
		})
		if err != nil {
			return countResult{}, err
		}
		cr := countResult{Work: make([]int64, procs), Idle: idleOf(acc)}
		for p := range acc {
			cr.Work[p] = acc[p].Work
		}
		return cr, nil
	}

	n := d.Len()
	numChunks := sched.NumChunks(n, opts.ChunkSize)
	chunkWork := make([]int64, numChunks)

	countChunk := func(ctxc *hashtree.CountCtx, c int) {
		lo, hi := sched.ChunkRange(n, opts.ChunkSize, c)
		before := ctxc.Work
		//armlint:allow ctxpoll a chunk is at most ChunkSize transactions; the claim loop around it polls between chunks
		for i := lo; i < hi; i++ {
			ctxc.CountTransaction(d.Items(i))
		}
		// Each chunk is claimed exactly once, so this write is private.
		chunkWork[c] = ctxc.Work - before
	}

	var runErr error
	switch opts.DBPart {
	case PartitionStealing:
		st := sched.NewStealing(procs)
		st.SeedBlocks(numChunks)
		runErr = pool.Run(func(p int) {
			t0 := time.Now()
			ctxc := newCtx(p)
			w := &acc[p]
			ow := rec.Worker(p)
			for ctx.Err() == nil {
				c, victim, ok := st.Next(p)
				if !ok {
					break
				}
				if victim != p {
					w.Stolen++
					ow.Steal(k, int(c), victim)
				}
				pool.NoteChunk(p, int(c))
				fi.Fire("count", k, p, int(c))
				ow.BeginChunk(k, int(c))
				countChunk(ctxc, int(c))
				ow.EndChunk(k, int(c))
				w.Claimed++
			}
			pool.NoteChunk(p, -1)
			ctxc.Flush()
			ow.AddWork(ctxc.Work)
			w.ElapsedNS = time.Since(t0).Nanoseconds()
		})
	default: // PartitionDynamic
		cur := sched.NewCursor(numChunks)
		runErr = pool.Run(func(p int) {
			t0 := time.Now()
			ctxc := newCtx(p)
			w := &acc[p]
			ow := rec.Worker(p)
			for ctx.Err() == nil {
				c, ok := cur.Next()
				if !ok {
					break
				}
				pool.NoteChunk(p, c)
				fi.Fire("count", k, p, c)
				ow.BeginChunk(k, c)
				countChunk(ctxc, c)
				ow.EndChunk(k, c)
				w.Claimed++
			}
			pool.NoteChunk(p, -1)
			ctxc.Flush()
			ow.AddWork(ctxc.Work)
			w.ElapsedNS = time.Since(t0).Nanoseconds()
		})
	}
	if runErr != nil {
		return countResult{}, runErr
	}
	cr := countResult{
		Claimed: make([]int64, procs),
		Steals:  make([]int64, procs),
		Work:    sched.GreedySchedule(chunkWork, procs),
		Idle:    idleOf(acc),
	}
	for p := range acc {
		cr.Claimed[p] = acc[p].Claimed
		cr.Steals[p] = acc[p].Stolen
	}
	return cr, nil
}

// idleOf sums each processor's wall-clock wait for the slowest one.
func idleOf(acc []sched.PerWorker) time.Duration {
	var m, idle int64
	for i := range acc {
		if acc[i].ElapsedNS > m {
			m = acc[i].ElapsedNS
		}
	}
	for i := range acc {
		idle += m - acc[i].ElapsedNS
	}
	return time.Duration(idle)
}

// parallelFrequentOne counts 1-itemsets through the shared item pass of
// package pairs (block partition, per-processor private arrays), polling for
// cancellation every stride transactions. On cancellation the caller must
// discard the (partial) counts — it checks the context before using the
// result.
func parallelFrequentOne(ctx context.Context, d *db.Database, minCount int64, pool *sched.Pool, fi *faultinj.Injector, stride int) ([]apriori.FrequentItemset, error) {
	counts, _, err := pairs.CountItems(ctx, d, pool, stride, fi)
	if err != nil {
		return nil, err
	}
	return pairs.FrequentItems(counts, minCount), nil
}

// pairIteration runs iteration 2 as the shared triangular-array pass of
// package pairs: no candidate generation, tree build or hash-tree count — F2
// comes straight out of the summed triangle in lexicographic order, so k=3
// generation is fed unchanged. ok is false when the caller must run the
// paper's hash-tree iteration instead: Options.PairPass unset, fewer than two
// frequent items (no candidates: the hash-tree path records that fixpoint),
// or private triangles over the pairs budget. prev is F1.
//
// The work model follows the pass: CountWork is each worker's ranked items
// and pair increments over its block, ReduceWork the serial scan of the
// C(|F1|,2) cells (the implicit candidate set), and there is no generation
// or build work.
func pairIteration(ctx context.Context, d *db.Database, pool *sched.Pool, opts Options, minCount int64, prev []itemset.Itemset) (fk []apriori.FrequentItemset, pt PhaseTiming, ok bool, err error) {
	n := len(prev)
	if !opts.PairPass || n < 2 || !pairs.Fits(n, opts.Procs, d.Len()) {
		return nil, pt, false, nil
	}
	items := make([]itemset.Item, n)
	for i, f := range prev {
		items[i] = f[0]
	}
	rec := opts.Obs
	t0 := time.Now()
	rec.SetPhase(obs.PhaseCount, 2)
	rec.BeginPhase(obs.PhaseCount, 2)
	tri, work, err := pairs.Count(ctx, d, pool, items, opts.ChunkSize, opts.FaultInj)
	rec.EndPhase(obs.PhaseCount, 2)
	if err != nil {
		return nil, pt, true, annotate(err, "count", 2)
	}
	if err := robust.Canceled(ctx, "count", 2); err != nil {
		return nil, pt, true, err
	}
	for p, w := range work {
		rec.Worker(p).AddWork(w)
	}
	pt = PhaseTiming{
		K: 2, Count: time.Since(t0), Candidates: tri.Cells(), Batches: 1,
		CountWork: work, ReduceWork: int64(tri.Cells()),
	}
	t0 = time.Now()
	rec.SetPhase(obs.PhaseReduce, 2)
	rec.BeginPhase(obs.PhaseReduce, 2)
	fk = tri.Frequent(minCount)
	rec.EndPhase(obs.PhaseReduce, 2)
	pt.Reduce = time.Since(t0)
	pt.Frequent = len(fk)
	rec.IterStats(2, tri.Cells(), len(fk))
	return fk, pt, true, nil
}

// generateParallel partitions the join units of F_{k-1}'s equivalence
// classes across processors per the balance scheme, generates and prunes in
// parallel, and merges the per-processor candidate lists in lexicographic
// order. Adaptive parallelism (Section 3.1.3) falls back to the sequential
// join when there is too little work — still dispatched through the pool so
// a panic in the join is contained like any other phase.
func generateParallel(prev []itemset.Itemset, opts Options, pool *sched.Pool) ([]itemset.Itemset, bool, []int64, error) {
	classes := itemset.Classes(prev)
	sizes := make([]int, len(classes))
	for i := range classes {
		sizes[i] = classes[i].Size()
	}
	costs, units := partition.MultiClassCosts(sizes)
	k := prev[0].K() + 1
	fi := opts.FaultInj
	perPair := int64(hashtree.WorkJoinPair + (k-2)*hashtree.WorkPruneCheck)
	if opts.Procs == 1 || len(units) < opts.AdaptiveMinUnits {
		// Sequential generation, run on worker 0 (all work attributed
		// there; the other workers return immediately at the barrier).
		var cands []itemset.Itemset
		var joinPairs int64
		err := pool.Run(func(p int) {
			fi.Fire("gen", k, p, -1)
			if p != 0 {
				return
			}
			cands, joinPairs, _ = apriori.GenerateCandidates(prev, opts.NaiveJoin)
		})
		if err != nil {
			return nil, true, nil, err
		}
		work := make([]int64, opts.Procs)
		work[0] = joinPairs * perPair
		return cands, true, work, nil
	}

	var assign *partition.Assignment
	switch opts.Balance {
	case BalanceInterleaved:
		assign = partition.Interleaved(len(units), opts.Procs)
	case BalanceBitonic:
		assign = partition.GreedyBitonic(costs, opts.Procs)
	default:
		assign = partition.Block(len(units), opts.Procs)
	}

	// Invert the assignment once: each worker receives only its own unit
	// list instead of all P workers scanning every entry of assign.Bucket.
	// Unit ids stay ascending within each list, which keeps every worker's
	// output lexicographically sorted (classes are in prefix order and a
	// unit's candidates are ordered by tail pair).
	perProc := make([][]int32, opts.Procs)
	for u, b := range assign.Bucket {
		perProc[b] = append(perProc[b], int32(u))
	}

	inPrev := apriori.PruneSet(prev)

	locals := make([][]itemset.Itemset, opts.Procs)
	genWork := make([]int64, opts.Procs)
	err := pool.Run(func(p int) {
		fi.Fire("gen", k, p, -1)
		var out []itemset.Itemset
		// Accumulate work in a register-resident local and store once:
		// incrementing genWork[p] per unit would bounce the slice's cache
		// line between all P processors (false sharing) for the whole
		// generation phase.
		var work int64
		scratch := make(itemset.Itemset, k)
		// Per-worker arena: surviving candidates are copied into one
		// growing block instead of one heap object per candidate.
		arena := make([]itemset.Item, 0, 64*k)
		for _, u := range perProc[p] {
			cu := units[u]
			cl := &classes[cu.Class]
			work += int64(len(cl.Tails)-cu.Pos-1) * perPair
			for j := cu.Pos + 1; j < len(cl.Tails); j++ {
				if apriori.JoinPrune(inPrev, scratch, cl.Prefix, cl.Tails[cu.Pos], cl.Tails[j]) {
					n := len(arena)
					arena = append(arena, scratch...)
					out = append(out, itemset.Itemset(arena[n:n+k:n+k]))
				}
			}
		}
		genWork[p] = work
		locals[p] = out
	})
	if err != nil {
		return nil, false, nil, err
	}
	return mergeSortedCandidates(locals), false, genWork, nil
}

// mergeSortedCandidates k-way merges the per-processor (already
// lexicographically sorted) candidate lists through the shared heap-based
// merge: O(C·log P) comparisons, replacing the former O(C·P) linear head
// scan (which itself replaced a serial O(C log C) global sort).
func mergeSortedCandidates(locals [][]itemset.Itemset) []itemset.Itemset {
	return itemset.MergeSortedBy(locals, itemset.Itemset.Less)
}
