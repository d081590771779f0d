package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/rules"
)

// The mining policy every workload shares: the paper's 0.25% support, rules
// at confidence 0.5, two workers on a two-CPU host.
const (
	support = 0.0025
	minConf = 0.5
	procs   = 2
)

// workload is one input set: the Quest database the batch pipeline mines.
// Every workload also serves the same stream through armined.
type workload struct {
	name string
	data gen.Params
}

var workloads = []workload{
	{name: "t10i4-count", data: gen.Params{T: 10, I: 4, D: 100_000}},
	{name: "serve-stream", data: streamData},
}

// streamData is the database every workload streams into armined. It is
// the one Quest shape the serve load keeps steady: a T10.I4 stream re-mines
// back to back for ~2 s on both CPUs, and the queue the requests build up
// behind each re-mine makes a round's query p50 swing tenfold.
var streamData = gen.Params{T: 5, I: 2, D: 100_000}

// refEngines are the exact engines the reference result comes from: the
// first one the planner did not pick.
var refEngines = [...]string{"ccpd", "seq"}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one run of one workload.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	traced bool
	tr     *tracer // nil unless traced
	tmp    string
	log    io.Writer

	vals              map[string]float64
	notes             []string // labels printed with the result
	attempted, failed int64
}

// check counts one verified operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func (b *bench) set(name string, v float64) { b.vals[name] = v }

// questSeed fixes the Quest pattern table of every workload. The number of
// frequent itemsets and rules swings by a third between pattern tables
// (T20.I6 at 0.25%: 4.49M rules for one table, 3.02M for another), which
// would make a run's figures depend more on the seed than on the code. So
// the table is the fixed instance the workload names, and --seed draws an
// isomorphic copy of it: a permutation of the item ids and of the
// transaction order. Itemset and rule counts are invariant under both; hash
// placement, bitmap layout, partition blocks and the stream's prefixes are
// not.
const questSeed = 1

// generate builds the Quest database p describes, as the run's seed
// permutes it.
func (b *bench) generate(p gen.Params) (*db.Database, error) {
	p.Seed = questSeed
	base, err := gen.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", p.Name(), err)
	}
	return relabel(base, b.seed)
}

// relabel returns a copy of d with item ids and transaction order permuted
// by seed.
func relabel(d *db.Database, seed int64) (*db.Database, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(d.NumItems())
	order := rng.Perm(d.Len())
	out := db.New(d.NumItems())
	buf := make([]itemset.Item, 0, 64)
	for tid, i := range order {
		buf = buf[:0]
		for _, it := range d.Items(i) {
			buf = append(buf, itemset.Item(perm[it]))
		}
		if err := out.TryAppend(int64(tid), itemset.New(buf...)); err != nil {
			return nil, fmt.Errorf("relabel: %w", err)
		}
	}
	return out, nil
}

// pipelineShare is the share of the budget that goes to pipeline
// repetitions; serve rounds get the rest.
const pipelineShare = 1.0 / 3

// minPipelineReps is the fewest pipeline repetitions a run makes.
const minPipelineReps = 3

func (b *bench) run() error {
	serveBudget := time.Duration(float64(b.budget) * (1 - pipelineShare))
	srv, finals, setups, last, err := b.serveRounds(serveBudget)
	if err != nil {
		return err
	}
	reps, err := b.pipelineReps(last.path, b.budget-serveBudget)
	if err != nil {
		return err
	}
	var pinned []pinnedRun
	if b.traced {
		if pinned, err = b.pinnedRuns(last.path); err != nil {
			return err
		}
	}
	peak := peakRSSMB()

	// The rounds do not keep the workload's database in memory, so both
	// workloads serve beside the same live heap; it is read back here.
	d, err := db.ReadFile(last.path)
	if err != nil {
		return err
	}
	ref, err := b.reference(d)
	if err != nil {
		return err
	}
	streamRef := ref
	if b.w.data != streamData {
		if streamRef, err = b.reference(last.stream); err != nil {
			return err
		}
	}
	for i, r := range reps {
		b.check(r.digest == ref.outputDigest, "pipeline repetition %d (%s) differs from the %s reference", i, r.engine, ref.engine)
	}
	for _, p := range pinned {
		b.check(p.itemsets == ref.Itemsets, "pinned %s itemsets differ from the %s reference", p.engine, ref.engine)
	}
	for i, f := range finals {
		b.check(f == streamRef.outputDigest, "final snapshot of round %d differs from the %s reference", i, streamRef.engine)
	}

	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", peak)
	b.pipelineMetrics(reps)
	if err := srv.report(b); err != nil {
		return err
	}
	if b.traced {
		b.pinnedMetrics(pinned)
	}
	return nil
}

// referenceDigest is the expected output, with the engine that produced it.
type referenceDigest struct {
	outputDigest
	engine string
}

// reference mines d with an exact engine other than the planner's pick,
// outside every timed region, and derives its rules with
// rules.GenerateFast, the generator the server uses. The pipeline's rules
// come from rules.Generate, so rules are checked across the two generators.
func (b *bench) reference(d *db.Database) (referenceDigest, error) {
	plan := engine.Planner{Procs: procs}.Plan(engine.Characterize(d))
	name := refEngines[0]
	if name == plan.Engine {
		name = refEngines[1]
	}
	runtime.GC()
	res, _, err := engine.Dispatch(context.Background(), name, d, nil, plannedSpec(plan))
	if err != nil {
		return referenceDigest{}, fmt.Errorf("reference %s: %w", name, err)
	}
	return referenceDigest{
		outputDigest: outputDigest{Itemsets: itemsetDigest(res), Rules: rulesDigest(rules.GenerateFast(res, ruleOptions(d)))},
		engine:       name,
	}, nil
}

// plannedSpec is the Spec cmd/apriori -algo auto builds with its default
// flags, at two workers.
func plannedSpec(plan engine.Plan) engine.Spec {
	return engine.Spec{
		Mining: apriori.Options{
			MinSupport: support, ShortCircuit: true, Hash: hashtree.HashBitonic,
		},
		Procs:     procs,
		Counter:   hashtree.CounterPrivate,
		Balance:   ccpd.BalanceBitonic,
		DBPart:    plan.DBPart,
		ChunkSize: plan.ChunkSize,
	}
}

func ruleOptions(d *db.Database) rules.Options {
	return rules.Options{MinConfidence: minConf, DBSize: int64(d.Len())}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pipelineRep is one timed db.ReadFile → Characterize → Plan → Dispatch →
// rules.Generate pass.
type pipelineRep struct {
	traced bool
	wall   time.Duration
	engine string
	digest outputDigest
	rules  int
	// Runtime deltas over the repetition.
	allocMB, gcCycles, gcPauseMS float64
}

// pipelineReps repeats the pipeline until budget is spent (at least
// minPipelineReps times). Traced runs alternate untraced and traced
// repetitions, so the difference between the two medians is the tracing
// overhead.
func (b *bench) pipelineReps(path string, budget time.Duration) ([]pipelineRep, error) {
	var reps []pipelineRep
	start := time.Now()
	for i := 0; i < minPipelineReps || time.Since(start) < budget; i++ {
		var tr *tracer
		if b.traced && i%2 == 1 {
			tr = b.tr
		}
		r, err := b.pipeline(path, tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(b.log, "pipeline repetition %d: %.3f s (%s, traced=%v)\n", i, r.wall.Seconds(), r.engine, r.traced)
		reps = append(reps, r)
	}
	return reps, nil
}

func (b *bench) pipeline(path string, tr *tracer) (pipelineRep, error) {
	// Start from a collected heap with its free pages returned, as a fresh
	// process would; otherwise how far the background scavenger got since
	// the last repetition decides how many page faults this one pays.
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	trace := tr.newTrace()
	t0 := time.Now()
	root := tr.begin(trace, nil, "pipeline")

	sp := tr.begin(trace, root, "db.ReadFile")
	d, err := db.ReadFile(path)
	if err != nil {
		return pipelineRep{}, err
	}
	tr.finish(sp, map[string]any{"transactions": d.Len(), "bytes": d.SizeBytes()})

	sp = tr.begin(trace, root, "engine.Characterize")
	info := engine.Characterize(d)
	tr.finish(sp, map[string]any{"density": info.Density, "tail_mass": info.TailMass})

	sp = tr.begin(trace, root, "engine.Planner.Plan")
	plan := engine.Planner{Procs: procs}.Plan(info)
	tr.finish(sp, map[string]any{"engine": plan.Engine, "reason": plan.Reason})

	sp = tr.begin(trace, root, "engine.Dispatch")
	res, st, err := engine.Dispatch(context.Background(), plan.Engine, d, nil, plannedSpec(plan))
	if err != nil {
		return pipelineRep{}, fmt.Errorf("dispatch %s: %w", plan.Engine, err)
	}
	tr.finish(sp, statsAttrs(st))

	sp = tr.begin(trace, root, "rules.Generate")
	rs := rules.Generate(res, ruleOptions(d))
	tr.finish(sp, map[string]any{"rules": len(rs)})

	wall := time.Since(t0)
	tr.finish(root, map[string]any{"engine": plan.Engine})
	r := pipelineRep{traced: tr != nil, wall: wall, engine: plan.Engine, rules: len(rs)}
	if tr != nil {
		runtime.ReadMemStats(&after)
		r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		r.gcCycles = float64(after.NumGC - before.NumGC)
		r.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	}
	r.digest = outputDigest{Itemsets: itemsetDigest(res), Rules: rulesDigest(rs)}
	return r, nil
}

// statsAttrs copies the counts an engine returns in its Stats onto the
// Dispatch span.
func statsAttrs(st *engine.Stats) map[string]any {
	a := map[string]any{"engine": st.EngineName, "total_us": st.Total.Microseconds(), "count_us": st.Count.Microseconds()}
	if c := st.CCPD; c != nil {
		var cands, freq []int
		for _, it := range c.PerIter {
			cands = append(cands, it.Candidates)
			freq = append(freq, it.Frequent)
		}
		a["ccpd_candidates_by_k"] = cands
		a["ccpd_frequent_by_k"] = freq
		a["ccpd_model_time"] = c.ModelTime()
		a["ccpd_count_idle_work"] = c.CountIdleWork()
		a["ccpd_steals"] = c.TotalSteals()
	}
	if v := st.VBit; v != nil {
		a["vbit_classes"] = v.Classes
		a["vbit_dense_items"] = v.DenseItems
		a["vbit_sparse_items"] = v.SparseItems
		a["vbit_total_work"] = v.TotalWork()
		a["vbit_model_time"] = v.ModelTime()
	}
	return a
}

func (b *bench) pipelineMetrics(reps []pipelineRep) {
	var plain, traced, alloc, gcs, pauses []float64
	picks := map[string]int{}
	for _, r := range reps {
		picks[r.engine]++
		if !r.traced {
			plain = append(plain, r.wall.Seconds())
			continue
		}
		traced = append(traced, r.wall.Seconds())
		alloc = append(alloc, r.allocMB)
		gcs = append(gcs, r.gcCycles)
		pauses = append(pauses, r.gcPauseMS)
	}
	// The engine choice and the rule count are labels of the workload, not
	// figures to improve: they are printed, not reported as metrics.
	b.notes = append(b.notes, fmt.Sprintf("engine.choice=%v", picks), fmt.Sprintf("rules.count=%d", reps[0].rules))
	b.set("pipeline_s", median(plain))
	if !b.traced {
		return
	}
	b.set("trace.pipeline_overhead_s", median(traced)-median(plain))
	b.set("go.alloc_mb", median(alloc))
	b.set("go.gc_cycles", median(gcs))
	b.set("go.gc_pause_ms", median(pauses))

	med := func(name string) float64 {
		var xs []float64
		for _, d := range b.tr.durations(name, nil) {
			xs = append(xs, d.Seconds())
		}
		return median(xs)
	}
	read := med("db.ReadFile")
	b.set("db.read_s", read)
	if fi, err := os.Stat(filepath.Join(b.tmp, b.w.name+".ardb")); err == nil && read > 0 {
		b.set("db.read_mb_per_s", float64(fi.Size())/(1<<20)/read)
	}
	b.set("engine.characterize_s", med("engine.Characterize"))
	b.set("engine.plan_s", med("engine.Planner.Plan"))
	b.set("rules.generate_s", med("rules.Generate"))
	if cov, ok := b.tr.coverage("pipeline"); ok {
		b.set("trace.span_coverage", cov)
	}
	if g := b.vals["rules.generate_s"]; g > 0 {
		b.set("rules.per_s", float64(reps[0].rules)/g)
	}
}

// pinnedRun is one traced mine with the engine forced, so the planner's
// pick can be compared with the engine it passed over.
type pinnedRun struct {
	engine   string
	wall     time.Duration
	stats    *engine.Stats
	itemsets string
}

// pinnedRuns mines the workload once with ccpd and once with vbit, and
// times rules.GenerateFast on the result of the planner's pick — the same
// Result rules.Generate ran on in the pipeline.
func (b *bench) pinnedRuns(path string) ([]pinnedRun, error) {
	d, err := db.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plan := engine.Planner{Procs: procs}.Plan(engine.Characterize(d))
	var out []pinnedRun
	for _, name := range []string{"ccpd", "vbit"} {
		runtime.GC()
		trace := b.tr.newTrace()
		root := b.tr.begin(trace, nil, "pinned")
		sp := b.tr.begin(trace, root, "engine.Dispatch")
		t0 := time.Now()
		res, st, err := engine.Dispatch(context.Background(), name, d, nil, plannedSpec(plan))
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("pinned %s: %w", name, err)
		}
		b.tr.finish(sp, statsAttrs(st))
		if name == plan.Engine {
			sp = b.tr.begin(trace, root, "rules.GenerateFast")
			t1 := time.Now()
			rs := rules.GenerateFast(res, ruleOptions(d))
			b.set("rules.generate_fast_s", time.Since(t1).Seconds())
			b.tr.finish(sp, map[string]any{"rules": len(rs)})
		}
		b.tr.finish(root, map[string]any{"engine": name})
		out = append(out, pinnedRun{engine: name, wall: wall, stats: st, itemsets: itemsetDigest(res)})
	}
	return out, nil
}

func (b *bench) pinnedMetrics(pinned []pinnedRun) {
	var mine []float64
	for _, d := range b.tr.durations("engine.Dispatch", b.tr.traces("pipeline")) {
		mine = append(mine, d.Seconds())
	}
	b.set("engine.mine_s", median(mine))
	best := 0.0
	for _, p := range pinned {
		w := p.wall.Seconds()
		b.set("engine.mine_"+p.engine+"_s", w)
		if best == 0 || w < best {
			best = w
		}
		switch {
		case p.stats.CCPD != nil:
			c := p.stats.CCPD
			var gen, build, count, k2, reduce, idle time.Duration
			cands, freq := 0, 0
			for _, it := range c.PerIter {
				gen += it.CandGen
				build += it.TreeBuild
				count += it.Count
				reduce += it.Reduce
				idle += it.CountIdle
				if it.K == 2 {
					k2 += it.Count
				}
				cands += it.Candidates
				freq += it.Frequent
			}
			b.set("ccpd.gen_s", gen.Seconds())
			b.set("ccpd.build_s", build.Seconds())
			b.set("ccpd.count_s", count.Seconds())
			b.set("ccpd.k2_count_s", k2.Seconds())
			b.set("ccpd.reduce_s", reduce.Seconds())
			b.set("ccpd.count_idle_s", idle.Seconds())
			b.set("ccpd.candidates", float64(cands))
			if cands > 0 {
				b.set("ccpd.frequent_per_candidate", float64(freq)/float64(cands))
			}
		case p.stats.VBit != nil:
			v := p.stats.VBit
			var work int64
			for _, w := range v.ClassWork {
				work += w
			}
			b.set("vbit.dfs_s", v.Count.Seconds())
			b.set("vbit.class_work", float64(work))
			b.set("vbit.dense_items", float64(v.DenseItems))
		}
	}
	if best > 0 {
		b.set("engine.regret", b.vals["engine.mine_s"]/best)
	}
}
