// Package eclat implements the vertical-database association miner of the
// authors' follow-up work (Zaki, Parthasarathy, Ogihara & Li 1997 — cited
// throughout Section 7 as the successor with "excellent locality since only
// simple intersection operations are used"). The database is turned into
// per-item transaction-id lists; frequent itemsets grow by intersecting
// tidlists within prefix equivalence classes, depth first. Results match
// Apriori exactly; the cost structure (no hash tree, no rescans — pure
// intersections) is the contrast the paper draws.
//
// The intersection itself runs on the shared vbit.IntersectInto kernel
// through a per-class scratch buffer: a candidate extension costs zero
// allocations unless it turns out frequent, in which case only the
// surviving tidlist is copied out. (The engine previously allocated a
// fresh tidlist for every probed pair, frequent or not.)
package eclat

import (
	"context"
	"sort"
	"sync"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/robust"
	"repro/internal/vbit"
)

// Options configures a run.
type Options struct {
	// MinSupport as a fraction of |D|; AbsSupport overrides when > 0.
	MinSupport float64
	AbsSupport int64
	// MaxK bounds itemset size (0 = unbounded).
	MaxK int
	// Procs parallelizes over the first-level equivalence classes, the
	// natural task decomposition of the authors' parallel Eclat.
	Procs int
}

// minCount resolves the support threshold through the shared ceiling
// computation (apriori.CeilSupport) — this used to duplicate apriori's
// floor arithmetic, so both engines admitted itemsets below the requested
// fractional support and the bug had to be fixed in two places.
func (o Options) minCount(n int) int64 {
	if o.AbsSupport > 0 {
		return o.AbsSupport
	}
	return apriori.CeilSupport(o.MinSupport, n)
}

// tidlist is a sorted list of transaction indices.
type tidlist []int32

// Mine runs Eclat and returns the result in apriori.Result form so callers
// (and tests) can compare directly. It honors the same cancellation
// contract as CCPD/PCCD: cancellation is observed at equivalence-class
// granularity (each first-level class is one task), and a cancelled run
// returns the partial result — every class completed before the
// cancellation point — together with a *robust.CanceledError.
//
//armlint:cancellable
func Mine(ctx context.Context, d *db.Database, opts Options) (*apriori.Result, error) {
	if opts.Procs < 1 {
		opts.Procs = 1
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, err
	}
	minCount := opts.minCount(d.Len())
	res := &apriori.Result{MinCount: minCount, ByK: make([][]apriori.FrequentItemset, 2)}

	// Vertical transformation: one tidlist per item. The pass can dominate
	// the runtime on large sparse databases, so it polls for cancellation
	// every 4096 transactions rather than only at the phase boundary.
	lists := make([]tidlist, d.NumItems())
	for t := 0; t < d.Len(); t++ {
		if t&0xfff == 0 {
			if err := robust.Canceled(ctx, "f1", 1); err != nil {
				return nil, err
			}
		}
		for _, it := range d.Items(t) {
			lists[it] = append(lists[it], int32(t))
		}
	}
	type headItem struct {
		item itemset.Item
		tids tidlist
	}
	var f1 []headItem
	for it, l := range lists {
		if int64(len(l)) >= minCount {
			f1 = append(f1, headItem{itemset.Item(it), l})
			res.ByK[1] = append(res.ByK[1], apriori.FrequentItemset{
				Items: itemset.New(itemset.Item(it)), Count: int64(len(l)),
			})
		}
	}
	if opts.MaxK == 1 || len(f1) == 0 {
		return res, nil
	}

	// Depth-first growth within prefix classes. Each first-level class
	// (anchored at one frequent item) is an independent task; a class
	// claimed after cancellation is skipped, so the partial result holds
	// exactly the classes that completed.
	type found struct {
		items itemset.Itemset
		count int64
	}
	results := make([][]found, len(f1))
	done := make([]bool, len(f1))
	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Procs)
	for i := range f1 {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			var out []found
			// One scratch tidlist per class task: every intersection lands
			// here first and is copied out only when frequent.
			scratch := make(tidlist, d.Len())
			intersect := func(a, b tidlist) tidlist {
				n := vbit.IntersectInto(scratch, a, b)
				if int64(n) < minCount {
					return nil
				}
				out := make(tidlist, n)
				copy(out, scratch[:n])
				return out
			}
			prefix := itemset.New(f1[i].item)
			// Sibling tails: items after i with their tidlists.
			type node struct {
				item itemset.Item
				tids tidlist
			}
			var grow func(prefix itemset.Itemset, siblings []node)
			grow = func(prefix itemset.Itemset, siblings []node) {
				if opts.MaxK > 0 && prefix.K() >= opts.MaxK {
					return
				}
				for a := 0; a < len(siblings); a++ {
					ext := prefix.Union(itemset.New(siblings[a].item))
					out = append(out, found{ext, int64(len(siblings[a].tids))})
					var next []node
					for b := a + 1; b < len(siblings); b++ {
						if x := intersect(siblings[a].tids, siblings[b].tids); x != nil {
							next = append(next, node{siblings[b].item, x})
						}
					}
					if len(next) > 0 {
						grow(ext, next)
					}
				}
			}
			var sib []node
			for j := i + 1; j < len(f1); j++ {
				if x := intersect(f1[i].tids, f1[j].tids); x != nil {
					sib = append(sib, node{f1[j].item, x})
				}
			}
			if len(sib) > 0 {
				grow(prefix, sib)
			}
			results[i] = out
			done[i] = true
		}(i)
	}
	wg.Wait()

	for i, out := range results {
		if !done[i] {
			continue
		}
		for _, f := range out {
			k := f.items.K()
			for len(res.ByK) <= k {
				res.ByK = append(res.ByK, nil)
			}
			res.ByK[k] = append(res.ByK[k], apriori.FrequentItemset{Items: f.items, Count: f.count})
		}
	}
	for k := range res.ByK {
		fk := res.ByK[k]
		sort.Slice(fk, func(i, j int) bool { return fk[i].Items.Less(fk[j].Items) })
	}
	if err := robust.Canceled(ctx, "count", 2); err != nil {
		return res, err
	}
	return res, nil
}
