// Package pairs is the k=2 pass the in-RAM engines share. At k=2 every pair
// of frequent items is a candidate, so instead of building C(|F1|,2)
// hash-tree candidates (ccpd, pccd) or diffing every pair of level-1
// tidsets (vbit), one sweep over the database counts each transaction's
// frequent-item pairs into a direct-indexed upper-triangular int32 array.
// Every worker of the sched.Pool owns a private triangle over its block of
// the database — the paper's Section 5.2 privatized counters, which need no
// locks and no atomics — and the triangles are summed after the barrier.
// This is the L2 technique of Zaki et al.'s Eclat/MaxEclat work (KDD'97).
//
// The package also holds the iteration-1 item count (CountItems), whose F1
// the pair pass ranks. Both passes feed the deterministic work model, so the
// package is pinned: no wall clock, no randomness.
//
//armlint:pinned
package pairs

import (
	"context"
	"math"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/robust/faultinj"
	"repro/internal/sched"
)

// Work-model units of the two passes.
const (
	WorkItemScan = 1 // read one transaction item (and look up its count or rank)
	WorkPairInc  = 1 // increment one private pair counter
)

// maxTriangleBytes bounds the private triangles of one pass: procs ×
// n(n−1)/2 cells × 4 B. At two workers it admits about 8,000 frequent items.
// A package variable rather than a constant so tests can lower it and
// exercise the engines' fallbacks.
var maxTriangleBytes int64 = 256 << 20

// SetBudgetForTesting replaces the triangle memory budget and returns a func
// that restores the previous one. Tests only.
func SetBudgetForTesting(bytes int64) (restore func()) {
	prev := maxTriangleBytes
	maxTriangleBytes = bytes
	return func() { maxTriangleBytes = prev }
}

// Fits reports whether a pass over n frequent items on procs workers may
// run: the procs private triangles stay within the memory budget, and no
// int32 cell can overflow (a cell counts at most dbLen transactions). When
// it does not fit, ccpd and pccd count k=2 through the hash tree and vbit
// diffs every level-1 pair; the results are identical either way.
func Fits(n, procs, dbLen int) bool {
	cells := int64(n) * int64(n-1) / 2
	return int64(dbLen) <= math.MaxInt32 && int64(procs)*cells*4 <= maxTriangleBytes
}

// CountItems is the iteration-1 pass: block partition, one private count
// array per worker, polling ctx every stride transactions, summed after the
// barrier. It returns every item's support and each worker's scan work. The
// fault-injection site is ("f1", 1, worker, -1). On cancellation the counts
// are partial: the caller checks ctx before using them.
func CountItems(ctx context.Context, d *db.Database, pool *sched.Pool, stride int, fi *faultinj.Injector) (counts, work []int64, err error) {
	procs := pool.Procs()
	local := make([][]int64, procs)
	work = make([]int64, procs)
	slices := d.BlockPartition(procs)
	err = pool.Run(func(p int) {
		fi.Fire("f1", 1, p, -1)
		c := make([]int64, d.NumItems())
		var w int64
		s := slices[p]
		for i := s.Lo; i < s.Hi; i++ {
			if (i-s.Lo)%stride == 0 && ctx != nil && ctx.Err() != nil {
				break
			}
			items := d.Items(i)
			w += int64(len(items)) * WorkItemScan
			for _, it := range items {
				c[it]++
			}
		}
		local[p] = c
		work[p] = w
	})
	if err != nil {
		return nil, nil, err
	}
	counts = local[0]
	for _, c := range local[1:] {
		for it, v := range c {
			counts[it] += v
		}
	}
	return counts, work, nil
}

// FrequentItems returns F1 from the per-item supports: every item with
// support ≥ minCount, in ascending item order.
func FrequentItems(counts []int64, minCount int64) []apriori.FrequentItemset {
	var out []apriori.FrequentItemset
	for it, c := range counts {
		if c >= minCount {
			out = append(out, apriori.FrequentItemset{Items: itemset.New(itemset.Item(it)), Count: c})
		}
	}
	return out
}

// Triangle is an upper-triangular array of pair counts over the ranks of n
// frequent items: rank r is the r-th smallest item, and the pair of ranks
// a < b lives in cell base[a] + b. Row a holds the pairs (a, a+1 … n−1), so
// a row-major scan visits the pairs in lexicographic item order.
type Triangle struct {
	items []itemset.Item // rank → item, ascending
	rank  []int32        // item → rank; −1 for items outside F1
	base  []int          // base[a] = first cell of row a, minus a+1
	cells []int32
}

// NewTriangle ranks items (the frequent items in ascending order, each in
// [0, numItems)) and allocates a zeroed triangle over them.
func NewTriangle(items []itemset.Item, numItems int) *Triangle {
	n := len(items)
	t := &Triangle{items: items, rank: make([]int32, numItems), base: make([]int, n)}
	for i := range t.rank {
		t.rank[i] = -1
	}
	off := 0
	for a, it := range items {
		t.rank[it] = int32(a)
		t.base[a] = off - (a + 1)
		off += n - a - 1
	}
	t.cells = make([]int32, off)
	return t
}

// Cells returns the number of pairs, n(n−1)/2.
func (t *Triangle) Cells() int { return len(t.cells) }

// Support returns the count of the pair of ranks a < b.
func (t *Triangle) Support(a, b int) int64 { return int64(t.cells[t.base[a]+b]) }

// Add counts every pair of ranked items in one transaction (items sorted
// ascending, as every database row is) and returns how many of its items are
// ranked. buf is caller scratch of at least len(items) entries: the
// transaction's ranks, ascending because ranks follow item order.
//
//armlint:noalloc
func (t *Triangle) Add(items itemset.Itemset, buf []int32) int {
	m := 0
	for _, it := range items {
		if r := t.rank[it]; r >= 0 {
			buf[m] = r
			m++
		}
	}
	cells, base := t.cells, t.base
	for x := 0; x < m-1; x++ {
		row := base[buf[x]]
		for _, b := range buf[x+1 : m] {
			cells[row+int(b)]++
		}
	}
	return m
}

// Count runs the pair pass over d for the frequent items (ascending, as in
// F1): one private triangle per pool worker over the block partition,
// polling ctx every stride transactions, then a range-partitioned sum of the
// triangles on the same pool. work[p] is worker p's modelled pass work —
// every item it ranks plus every pair it increments, so the total does not
// depend on the worker count. The fault-injection site is ("count", 2,
// worker, -1). The caller checks Fits before, and ctx after: on
// cancellation the counts are partial.
func Count(ctx context.Context, d *db.Database, pool *sched.Pool, items []itemset.Item, stride int, fi *faultinj.Injector) (*Triangle, []int64, error) {
	procs := pool.Procs()
	// Worker 0 counts into total itself; the other workers' triangles are
	// added into it after the barrier.
	total := NewTriangle(items, d.NumItems())
	local := make([]*Triangle, procs)
	work := make([]int64, procs)
	slices := d.BlockPartition(procs)
	err := pool.Run(func(p int) {
		fi.Fire("count", 2, p, -1)
		tri := total
		if p > 0 {
			tri = &Triangle{items: total.items, rank: total.rank, base: total.base, cells: make([]int32, len(total.cells))}
		}
		buf := make([]int32, 64)
		var w int64
		s := slices[p]
		for i := s.Lo; i < s.Hi; i++ {
			if (i-s.Lo)%stride == 0 && ctx != nil && ctx.Err() != nil {
				break
			}
			row := d.Items(i)
			if len(row) > len(buf) {
				buf = make([]int32, 2*len(row))
			}
			m := int64(tri.Add(row, buf))
			w += int64(len(row))*WorkItemScan + m*(m-1)/2*WorkPairInc
		}
		local[p] = tri
		work[p] = w
	})
	if err != nil {
		return nil, nil, err
	}
	if procs > 1 {
		sum := total.cells
		err = pool.Run(func(p int) {
			lo := int(int64(p) * int64(len(sum)) / int64(procs))
			hi := int(int64(p+1) * int64(len(sum)) / int64(procs))
			dst := sum[lo:hi]
			for _, tri := range local[1:] {
				for i, v := range tri.cells[lo:hi] {
					dst[i] += v
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return total, work, nil
}

// Frequent returns every pair with count ≥ minCount as a 2-itemset, in
// lexicographic order — the F2 a hash-tree iteration would extract. The
// itemsets are cut from a shared growing arena, not allocated one by one.
func (t *Triangle) Frequent(minCount int64) []apriori.FrequentItemset {
	var out []apriori.FrequentItemset
	var arena []itemset.Item
	for a := range t.items {
		for b := a + 1; b < len(t.items); b++ {
			c := int64(t.cells[t.base[a]+b])
			if c < minCount {
				continue
			}
			k := len(arena)
			arena = append(arena, t.items[a], t.items[b])
			out = append(out, apriori.FrequentItemset{Items: itemset.Itemset(arena[k : k+2 : k+2]), Count: c})
		}
	}
	return out
}
