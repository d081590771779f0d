// Package core is the high-level entry point tying the paper's pieces
// together: convenience mining wrappers over the sequential (Section 2) and
// parallel CCPD/PCCD (Section 3) algorithms, and the memory-placement study
// engine of Sections 5–6.4 that replays the counting phase of every
// iteration through the placement policies and the MESI cache simulator.
package core

import (
	"context"
	"fmt"

	"repro/internal/apriori"
	"repro/internal/cachesim"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mem"
	"repro/internal/trace"
)

// StudyOptions configures a placement study run.
type StudyOptions struct {
	// Mining parameters (support, tree knobs). ShortCircuit applies to the
	// traced walks as well.
	Mining apriori.Options
	// Procs is the simulated processor count.
	Procs int
	// Policies to evaluate; defaults to mem.AllPolicies.
	Policies []mem.Policy
	// Cache geometry; zero value uses cachesim.DefaultConfig(Procs).
	Cache cachesim.Config
	// MaxTraceTx caps the number of transactions traced per processor per
	// iteration (the full database is still counted for mining
	// correctness); 0 means trace everything.
	MaxTraceTx int
	// OnlyK restricts tracing to one iteration; 0 traces every k ≥ 2.
	OnlyK int
}

// remapCyclesPerBlock is the modelled cost of copying one hash-tree
// component during the GPP depth-first remap (read + write, amortized over
// the cache line).
const remapCyclesPerBlock = 4

// PolicyResult aggregates the simulated behaviour of one policy over the
// traced iterations.
type PolicyResult struct {
	Policy mem.Policy
	// Time is the summed modelled parallel execution time (cycles).
	Time int64
	// Normalized is Time divided by the CCPD base time (Fig. 12/13 y-axis).
	Normalized float64
	Totals     cachesim.Stats
}

// StudyResult is the outcome of a placement study.
type StudyResult struct {
	Mining   *apriori.Result
	Policies []PolicyResult
	// TracedIters lists the iterations that contributed traces.
	TracedIters []int
}

// ByPolicy returns the result row for a policy, or nil.
func (r *StudyResult) ByPolicy(p mem.Policy) *PolicyResult {
	for i := range r.Policies {
		if r.Policies[i].Policy == p {
			return &r.Policies[i]
		}
	}
	return nil
}

// RunPlacementStudy mines the database level-wise; at each iteration k ≥ 2
// it assigns virtual addresses to the iteration's hash tree under every
// policy, replays the counting phase of each simulated processor as a
// memory trace, and feeds the interleaved traces to the cache simulator.
// Modelled times are summed over iterations and normalized to CCPD.
func RunPlacementStudy(d *db.Database, opts StudyOptions) (*StudyResult, error) {
	if opts.Procs < 1 {
		opts.Procs = 1
	}
	if len(opts.Policies) == 0 {
		opts.Policies = mem.AllPolicies
	}
	if opts.Cache.Procs == 0 {
		opts.Cache = cachesim.DefaultConfig(opts.Procs)
	}
	opts.Cache.Procs = opts.Procs
	minCount := opts.Mining.MinCount(d.Len())

	res := &StudyResult{
		Mining: &apriori.Result{MinCount: minCount, ByK: make([][]apriori.FrequentItemset, 2)},
	}
	agg := make(map[mem.Policy]*PolicyResult, len(opts.Policies))
	for _, p := range opts.Policies {
		agg[p] = &PolicyResult{Policy: p}
	}

	f1 := apriori.FrequentOne(d, minCount)
	res.Mining.ByK[1] = f1
	labels := apriori.LabelsFromF1(f1, d.NumItems())
	prev := make([]itemset.Itemset, len(f1))
	for i, f := range f1 {
		prev[i] = f.Items
	}

	slices := d.BlockPartition(opts.Procs)
	for k := 2; len(prev) > 0 && (opts.Mining.MaxK == 0 || k <= opts.Mining.MaxK); k++ {
		cands, _, _ := apriori.GenerateCandidates(prev, false)
		if len(cands) == 0 {
			break
		}
		cfg := hashtree.Config{
			K: k, Fanout: opts.Mining.Fanout, Threshold: opts.Mining.Threshold,
			Hash: opts.Mining.Hash, NumItems: d.NumItems(), Labels: labels,
		}
		tree, err := hashtree.Build(cfg, cands)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d: %w", k, err)
		}

		// Full untraced pass for mining correctness.
		counters := hashtree.NewCounters(hashtree.CounterAtomic, tree.NumCandidates(), 1)
		ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: opts.Mining.ShortCircuit})
		for i := 0; i < d.Len(); i++ {
			ctx.CountTransaction(d.Items(i))
		}

		if opts.OnlyK == 0 || opts.OnlyK == k {
			res.TracedIters = append(res.TracedIters, k)
			for _, pol := range opts.Policies {
				pl := hashtree.NewPlacement(tree, pol, opts.Procs)
				scratch := hashtree.NewCounters(hashtree.CounterPrivate, tree.NumCandidates(), opts.Procs)
				bufs := make([]*trace.Buffer, opts.Procs)
				traced := 0
				for p := 0; p < opts.Procs; p++ {
					tc := pl.NewTraceCtx(scratch, hashtree.CountOpts{
						ShortCircuit: opts.Mining.ShortCircuit, Proc: p,
					}, 1<<14)
					n := 0
					s := slices[p]
					for i := s.Lo; i < s.Hi; i++ {
						if opts.MaxTraceTx > 0 && n >= opts.MaxTraceTx {
							break
						}
						tc.CountTransaction(d.Items(i))
						n++
					}
					traced += n
					bufs[p] = tc.Buf
				}
				sim, err := cachesim.Replay(opts.Cache, bufs)
				if err != nil {
					return nil, fmt.Errorf("core: policy %v: %w", pol, err)
				}
				a := agg[pol]
				a.Time += sim.Time
				// Charge the depth-first remap (a serial copy of the tree),
				// prorated by the traced fraction of the database: the real
				// remap is paid once per iteration and amortized over the
				// full counting pass, of which the trace covers only a
				// window.
				if d.Len() > 0 && traced > 0 {
					frac := float64(traced) / float64(d.Len())
					a.Time += int64(float64(pl.RemapBlocks*remapCyclesPerBlock) * frac)
				}
				addStats(&a.Totals, sim.Totals())
			}
		}

		fk := apriori.ExtractFrequent(tree, counters, minCount)
		res.Mining.ByK = append(res.Mining.ByK, fk)
		prev = prev[:0]
		for _, f := range fk {
			prev = append(prev, f.Items)
		}
	}

	var base int64
	if a, ok := agg[mem.PolicyCCPD]; ok {
		base = a.Time
	} else if len(opts.Policies) > 0 {
		base = agg[opts.Policies[0]].Time
	}
	for _, p := range opts.Policies {
		a := agg[p]
		if base > 0 {
			a.Normalized = float64(a.Time) / float64(base)
		}
		res.Policies = append(res.Policies, *a)
	}
	return res, nil
}

func addStats(dst *cachesim.Stats, s cachesim.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.ColdMisses += s.ColdMisses
	dst.CoherenceMisses += s.CoherenceMisses
	dst.InvalidationsRecv += s.InvalidationsRecv
	dst.FalseSharingInvals += s.FalseSharingInvals
	dst.TrueSharingInvals += s.TrueSharingInvals
	dst.InvalidationsSent += s.InvalidationsSent
	dst.Writebacks += s.Writebacks
	dst.Cycles += s.Cycles
}

// MineSequential is a convenience wrapper over the sequential algorithm
// with the paper's optimizations (bitonic tree balancing, short-circuited
// subset checking) enabled.
func MineSequential(d *db.Database, minSupport float64) (*apriori.Result, error) {
	return apriori.Mine(d, apriori.Options{
		MinSupport:   minSupport,
		Hash:         hashtree.HashBitonic,
		ShortCircuit: true,
	})
}

// MineParallel is a convenience wrapper over CCPD with all optimizations:
// bitonic computation balancing, bitonic tree balancing, short-circuited
// subset checking, and privatized counters.
func MineParallel(d *db.Database, minSupport float64, procs int) (*apriori.Result, *ccpd.Stats, error) {
	return ccpd.Mine(context.Background(), d, ccpd.Options{
		Options: apriori.Options{
			MinSupport:   minSupport,
			Hash:         hashtree.HashBitonic,
			ShortCircuit: true,
		},
		Procs:   procs,
		Counter: hashtree.CounterPrivate,
		Balance: ccpd.BalanceBitonic,
	})
}
