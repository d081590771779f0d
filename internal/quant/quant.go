// Package quant implements quantitative association mining (Srikant &
// Agrawal 1996) — the third extension task Section 8 of the paper names.
// Numeric attributes are discretized into equi-depth base intervals;
// optionally, ranges of up to MaxMerge consecutive intervals become
// additional items (the paper's adjacent-interval combination, which
// counters the minimum-support problem of fine partitions). Each
// (attribute, range) pair maps to a boolean item, the encoded table is
// mined with the repository's (parallel) Apriori machinery, and frequent
// itemsets decode back into attribute-range predicates.
package quant

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
)

// Kind distinguishes attribute types.
type Kind int

const (
	// Numeric attributes are discretized into intervals.
	Numeric Kind = iota
	// Categorical attributes map each distinct value to one item.
	Categorical
)

// Column is one attribute of the input table.
type Column struct {
	Name   string
	Kind   Kind
	Values []float64 // categorical values are small non-negative integers
}

// Table is a column-oriented relational table.
type Table struct {
	Cols []Column
}

// Rows returns the row count (0 for an empty table).
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0].Values)
}

// Validate checks rectangular shape.
func (t *Table) Validate() error {
	n := t.Rows()
	for _, c := range t.Cols {
		if len(c.Values) != n {
			return fmt.Errorf("quant: column %q has %d rows, want %d", c.Name, len(c.Values), n)
		}
	}
	return nil
}

// Options configures encoding and mining.
type Options struct {
	// Intervals is the number of equi-depth base intervals per numeric
	// attribute (default 4).
	Intervals int
	// MaxMerge allows ranges spanning up to this many consecutive base
	// intervals (1 = base intervals only).
	MaxMerge int
	// Mining carries support and tree knobs.
	Mining apriori.Options
	// Procs > 1 mines in parallel with CCPD.
	Procs int
}

func (o Options) withDefaults() Options {
	if o.Intervals <= 0 {
		o.Intervals = 4
	}
	if o.MaxMerge <= 0 {
		o.MaxMerge = 1
	}
	return o
}

// Predicate is a decoded item: attribute ∈ [Lo, Hi] (numeric, inclusive
// interval of attribute values) or attribute = Value (categorical).
type Predicate struct {
	Attr  string
	Kind  Kind
	Lo    float64
	Hi    float64
	Value float64
}

func (p Predicate) String() string {
	if p.Kind == Categorical {
		return fmt.Sprintf("%s=%.4g", p.Attr, p.Value)
	}
	return fmt.Sprintf("%s∈[%.4g,%.4g]", p.Attr, p.Lo, p.Hi)
}

// Encoding maps (attribute, range) items to and from item ids.
type Encoding struct {
	preds   []Predicate // item id → predicate
	cols    int
	itemsOf [][]itemset.Item // per column: item ids, for decoding helpers
}

// NumItems returns the encoded universe size.
func (e *Encoding) NumItems() int { return len(e.preds) }

// Predicate decodes an item id.
func (e *Encoding) Predicate(it itemset.Item) Predicate { return e.preds[it] }

// DecodeItemset renders an encoded itemset as predicates.
func (e *Encoding) DecodeItemset(s itemset.Itemset) []Predicate {
	out := make([]Predicate, len(s))
	for i, it := range s {
		out[i] = e.preds[it]
	}
	return out
}

// cutpoints returns equi-depth boundaries for v split into n intervals:
// n+1 edges, first = min, last = max.
func cutpoints(v []float64, n int) []float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	edges := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		idx := i * (len(sorted) - 1) / n
		edges[i] = sorted[idx]
	}
	edges[0] = sorted[0]
	edges[n] = sorted[len(sorted)-1]
	return edges
}

// Encode discretizes the table into a transaction database plus the item
// encoding. Every row becomes one transaction holding, per attribute, the
// items of all ranges containing its value.
func Encode(t *Table, opts Options) (*db.Database, *Encoding, error) {
	opts = opts.withDefaults()
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	enc := &Encoding{cols: len(t.Cols)}
	// Per column: base interval edges (numeric) or sorted distinct values
	// (categorical), then item ids for each range.
	type colPlan struct {
		kind     Kind
		edges    []float64
		values   []float64
		itemBase map[[2]int]itemset.Item // (loIdx, hiIdx) → item
		valItem  map[float64]itemset.Item
	}
	plans := make([]colPlan, len(t.Cols))
	for ci, c := range t.Cols {
		p := colPlan{kind: c.Kind}
		if t.Rows() == 0 {
			plans[ci] = p
			continue
		}
		if c.Kind == Categorical {
			p.valItem = map[float64]itemset.Item{}
			distinct := map[float64]bool{}
			for _, v := range c.Values {
				distinct[v] = true
			}
			for v := range distinct {
				p.values = append(p.values, v)
			}
			sort.Float64s(p.values)
			for _, v := range p.values {
				id := itemset.Item(len(enc.preds))
				p.valItem[v] = id
				enc.preds = append(enc.preds, Predicate{Attr: c.Name, Kind: Categorical, Value: v})
			}
		} else {
			p.edges = cutpoints(c.Values, opts.Intervals)
			p.itemBase = map[[2]int]itemset.Item{}
			for lo := 0; lo < opts.Intervals; lo++ {
				for hi := lo; hi < opts.Intervals && hi-lo < opts.MaxMerge; hi++ {
					id := itemset.Item(len(enc.preds))
					p.itemBase[[2]int{lo, hi}] = id
					enc.preds = append(enc.preds, Predicate{
						Attr: c.Name, Kind: Numeric,
						Lo: p.edges[lo], Hi: p.edges[hi+1],
					})
				}
			}
		}
		plans[ci] = p
	}

	d := db.New(len(enc.preds))
	row := make([]itemset.Item, 0, len(t.Cols)*opts.MaxMerge)
	for r := 0; r < t.Rows(); r++ {
		row = row[:0]
		for ci, c := range t.Cols {
			p := &plans[ci]
			v := c.Values[r]
			if c.Kind == Categorical {
				row = append(row, p.valItem[v])
				continue
			}
			// Find the base interval (last interval whose low edge ≤ v).
			base := sort.SearchFloat64s(p.edges[1:], v)
			if base >= opts.Intervals {
				base = opts.Intervals - 1
			}
			// All ranges [lo, hi] covering base.
			for lo := 0; lo <= base; lo++ {
				for hi := base; hi < opts.Intervals && hi-lo < opts.MaxMerge; hi++ {
					if lo > hi {
						continue
					}
					if id, ok := p.itemBase[[2]int{lo, hi}]; ok {
						row = append(row, id)
					}
				}
			}
		}
		d.Append(int64(r+1), itemset.New(row...))
	}
	return d, enc, nil
}

// Result pairs the mined output with the encoding for decoding.
type Result struct {
	Encoding *Encoding
	Mining   *apriori.Result
}

// QuantItemset is a decoded frequent itemset.
type QuantItemset struct {
	Predicates []Predicate
	Count      int64
}

// Frequent returns decoded frequent itemsets of size k, skipping itemsets
// that combine two overlapping ranges of the same attribute (those are
// artifacts of range-item encoding, not meaningful conjunctions).
func (r *Result) Frequent(k int) []QuantItemset {
	if k >= len(r.Mining.ByK) {
		return nil
	}
	var out []QuantItemset
	for _, f := range r.Mining.ByK[k] {
		if r.sameAttrTwice(f.Items) {
			continue
		}
		out = append(out, QuantItemset{Predicates: r.Encoding.DecodeItemset(f.Items), Count: f.Count})
	}
	return out
}

func (r *Result) sameAttrTwice(s itemset.Itemset) bool {
	seen := map[string]bool{}
	for _, it := range s {
		a := r.Encoding.preds[it].Attr
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}

// Mine encodes and mines the table.
func Mine(t *Table, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	d, enc, err := Encode(t, opts)
	if err != nil {
		return nil, err
	}
	var res *apriori.Result
	if opts.Procs > 1 {
		res, _, err = ccpd.Mine(context.Background(), d, ccpd.Options{
			Options: opts.Mining,
			Procs:   opts.Procs,
			Counter: hashtree.CounterPrivate,
			Balance: ccpd.BalanceBitonic,
		})
	} else {
		res, err = apriori.Mine(d, opts.Mining)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Encoding: enc, Mining: res}, nil
}

// PartialCompleteness returns the information-loss bound K of Srikant &
// Agrawal for equi-depth partitioning with n base intervals and merge depth
// m over a single attribute: intervals grow by at most a factor
// 1 + 2/(n·m) ... simplified here to the canonical 1 + 2·m/n bound used to
// pick n for a desired K.
func PartialCompleteness(intervals, maxMerge int) float64 {
	if intervals <= 0 {
		return math.Inf(1)
	}
	return 1 + 2*float64(maxMerge)/float64(intervals)
}
