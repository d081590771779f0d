// Package taxonomy implements multi-level (generalized) association mining
// (Srikant & Agrawal 1995) — the second extension task Section 8 of the
// paper names. Items are organized in an is-a forest (e.g. jacket → outer-
// wear → clothes); a generalized rule may relate items at any level. The
// implementation follows the Cumulate approach: transactions are extended
// with all ancestors of their items, the extended database is mined with
// the (parallel) Apriori machinery of this repository, and itemsets that
// contain both an item and one of its ancestors are filtered out as
// trivially redundant.
package taxonomy

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
)

// Taxonomy is an is-a forest over the item universe: Parent[i] is item i's
// parent, or -1 for roots. Leaf items are the ones appearing in raw
// transactions; interior items are categories.
type Taxonomy struct {
	Parent []itemset.Item
}

// New builds a taxonomy from a parent vector; it validates shape.
func New(parent []itemset.Item) (*Taxonomy, error) {
	t := &Taxonomy{Parent: parent}
	// Detect cycles and out-of-range parents with a visited walk.
	for i := range parent {
		seen := map[itemset.Item]bool{}
		for j := itemset.Item(i); j >= 0; {
			if seen[j] {
				return nil, fmt.Errorf("taxonomy: cycle through item %d", j)
			}
			seen[j] = true
			p := parent[j]
			if p >= 0 && int(p) >= len(parent) {
				return nil, fmt.Errorf("taxonomy: item %d has out-of-range parent %d", j, p)
			}
			j = p
		}
	}
	return t, nil
}

// NumItems returns the universe size including category items.
func (t *Taxonomy) NumItems() int { return len(t.Parent) }

// Ancestors returns the strict ancestors of item i, nearest first.
func (t *Taxonomy) Ancestors(i itemset.Item) []itemset.Item {
	var out []itemset.Item
	for p := t.Parent[i]; p >= 0; p = t.Parent[p] {
		out = append(out, p)
	}
	return out
}

// IsAncestor reports whether a is a strict ancestor of i.
func (t *Taxonomy) IsAncestor(a, i itemset.Item) bool {
	for p := t.Parent[i]; p >= 0; p = t.Parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

// Depth returns the number of ancestors of i (roots have depth 0).
func (t *Taxonomy) Depth(i itemset.Item) int { return len(t.Ancestors(i)) }

// ExtendTransaction returns the items plus all their ancestors, sorted and
// deduplicated — the Cumulate transaction extension.
func (t *Taxonomy) ExtendTransaction(items itemset.Itemset) itemset.Itemset {
	out := make(itemset.Itemset, 0, 2*len(items))
	out = append(out, items...)
	for _, it := range items {
		out = append(out, t.Ancestors(it)...)
	}
	return itemset.New(out...)
}

// ExtendDatabase builds the extended database (every transaction augmented
// with ancestors).
func (t *Taxonomy) ExtendDatabase(d *db.Database) *db.Database {
	out := db.New(t.NumItems())
	for i := 0; i < d.Len(); i++ {
		out.Append(d.TID(i), t.ExtendTransaction(d.Items(i)))
	}
	return out
}

// ContainsAncestorPair reports whether the itemset holds both an item and
// one of its ancestors (such itemsets have support identical to the subset
// without the ancestor and are pruned per Cumulate).
func (t *Taxonomy) ContainsAncestorPair(s itemset.Itemset) bool {
	for _, a := range s {
		for _, b := range s {
			if a != b && t.IsAncestor(a, b) {
				return true
			}
		}
	}
	return false
}

// Options configures generalized mining.
type Options struct {
	// Mining carries the support/tree knobs of the base algorithm.
	Mining apriori.Options
	// Procs > 1 uses the parallel CCPD miner on the extended database.
	Procs int
}

// Result is the generalized mining output.
type Result struct {
	// Frequent holds the generalized frequent itemsets (ancestor-pair
	// itemsets removed) with supports, by size.
	ByK [][]apriori.FrequentItemset
	// Raw is the unfiltered result over the extended database.
	Raw *apriori.Result
	// PrunedAncestorPairs counts itemsets dropped by the ancestor filter.
	PrunedAncestorPairs int
}

// NumFrequent counts the surviving generalized itemsets.
func (r *Result) NumFrequent() int {
	n := 0
	for _, fk := range r.ByK {
		n += len(fk)
	}
	return n
}

// Mine extends the database with the taxonomy, mines it, and filters
// ancestor-pair itemsets.
func Mine(d *db.Database, t *Taxonomy, opts Options) (*Result, error) {
	if t.NumItems() < d.NumItems() {
		return nil, fmt.Errorf("taxonomy: universe %d smaller than database universe %d",
			t.NumItems(), d.NumItems())
	}
	ext := t.ExtendDatabase(d)
	var raw *apriori.Result
	var err error
	if opts.Procs > 1 {
		raw, _, err = ccpd.Mine(context.Background(), ext, ccpd.Options{
			Options: opts.Mining,
			Procs:   opts.Procs,
			Counter: hashtree.CounterPrivate,
			Balance: ccpd.BalanceBitonic,
		})
	} else {
		raw, err = apriori.Mine(ext, opts.Mining)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Raw: raw, ByK: make([][]apriori.FrequentItemset, len(raw.ByK))}
	for k := range raw.ByK {
		for _, f := range raw.ByK[k] {
			if t.ContainsAncestorPair(f.Items) {
				res.PrunedAncestorPairs++
				continue
			}
			res.ByK[k] = append(res.ByK[k], f)
		}
	}
	return res, nil
}

// Interest computes the R-interesting measure of Srikant & Agrawal: the
// ratio of an itemset's actual support to the support expected from the
// closest generalized itemset obtained by replacing every item with its
// parent (where one exists). Values near 1 mean the specific itemset adds
// no information over its generalization; a common threshold is R = 1.1.
// Returns 0 when no generalization exists or supports are missing.
func Interest(res *Result, t *Taxonomy, s itemset.Itemset, dbLen int) float64 {
	gen := make(itemset.Itemset, 0, len(s))
	replaced := false
	for _, it := range s {
		if p := t.Parent[it]; p >= 0 {
			gen = append(gen, p)
			replaced = true
		} else {
			gen = append(gen, it)
		}
	}
	if !replaced || dbLen == 0 {
		return 0
	}
	gen = itemset.New(gen...)
	if len(gen) != len(s) {
		// Two items collapsed to the same parent; expectation undefined
		// under the simple independence model.
		return 0
	}
	supS := res.Raw.SupportOf(s)
	supG := res.Raw.SupportOf(gen)
	if supS == 0 || supG == 0 {
		return 0
	}
	// Expected support of s = support(gen) × Π (support(item)/support(parent)).
	exp := float64(supG)
	for i, it := range s {
		if gen[i] == it {
			continue
		}
		si := res.Raw.SupportOf(itemset.New(it))
		sp := res.Raw.SupportOf(itemset.New(gen[i]))
		if si == 0 || sp == 0 {
			return 0
		}
		exp *= float64(si) / float64(sp)
	}
	if exp == 0 {
		return 0
	}
	return float64(supS) / exp
}

// GenParams configures the random taxonomy generator: a forest over
// numLeaves leaf items with the given fan-out and depth. Category ids are
// assigned above the leaf range, so a database over [0, numLeaves) items
// composes directly.
type GenParams struct {
	NumLeaves int
	Fanout    int // children per category (≥2)
	Levels    int // category levels above the leaves (≥1)
	Seed      int64
}

// Generate builds a random forest taxonomy.
func Generate(p GenParams) (*Taxonomy, error) {
	if p.NumLeaves < 1 || p.Fanout < 2 || p.Levels < 1 {
		return nil, fmt.Errorf("taxonomy: bad generator params %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	// Level 0: leaves. Each level groups the previous level's nodes into
	// categories of size Fanout (with a shuffle for irregularity).
	current := make([]itemset.Item, p.NumLeaves)
	for i := range current {
		current[i] = itemset.Item(i)
	}
	parent := make([]itemset.Item, p.NumLeaves)
	for i := range parent {
		parent[i] = -1
	}
	next := itemset.Item(p.NumLeaves)
	for level := 0; level < p.Levels && len(current) > 1; level++ {
		rng.Shuffle(len(current), func(i, j int) {
			current[i], current[j] = current[j], current[i]
		})
		var upper []itemset.Item
		for i := 0; i < len(current); i += p.Fanout {
			end := i + p.Fanout
			if end > len(current) {
				end = len(current)
			}
			cat := next
			next++
			parent = append(parent, -1)
			for _, child := range current[i:end] {
				parent[child] = cat
			}
			upper = append(upper, cat)
		}
		current = upper
	}
	return New(parent)
}
