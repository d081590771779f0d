package pairs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// bruteItems and brutePairs are the reference counts: a direct scan over
// every row, with pairs keyed by their (smaller, larger) items.
func bruteItems(d *db.Database) []int64 {
	c := make([]int64, d.NumItems())
	for i := 0; i < d.Len(); i++ {
		for _, it := range d.Items(i) {
			c[it]++
		}
	}
	return c
}

func brutePairs(d *db.Database, freq map[itemset.Item]bool) map[[2]itemset.Item]int64 {
	m := map[[2]itemset.Item]int64{}
	for i := 0; i < d.Len(); i++ {
		row := d.Items(i)
		for a := range row {
			for b := a + 1; b < len(row); b++ {
				if freq[row[a]] && freq[row[b]] {
					m[[2]itemset.Item{row[a], row[b]}]++
				}
			}
		}
	}
	return m
}

// checkPass runs CountItems and Count on d at minCount over procs workers
// and compares every item count, every pair cell and the extracted F2 with
// the brute-force reference.
func checkPass(t *testing.T, label string, d *db.Database, minCount int64, procs int) {
	t.Helper()
	pool := sched.NewPool(procs)
	defer pool.Close()
	counts, _, err := CountItems(context.Background(), d, pool, 3, nil)
	if err != nil {
		t.Fatalf("%s: CountItems: %v", label, err)
	}
	want := bruteItems(d)
	for it := range want {
		if counts[it] != want[it] {
			t.Fatalf("%s: item %d count %d, want %d", label, it, counts[it], want[it])
		}
	}
	f1 := FrequentItems(counts, minCount)
	freq := map[itemset.Item]bool{}
	items := make([]itemset.Item, len(f1))
	for i, f := range f1 {
		items[i] = f.Items[0]
		freq[f.Items[0]] = true
		if f.Count != want[f.Items[0]] || f.Count < minCount {
			t.Fatalf("%s: F1 entry %v/%d wrong", label, f.Items, f.Count)
		}
	}
	tri, work, err := Count(context.Background(), d, pool, items, 3, nil)
	if err != nil {
		t.Fatalf("%s: Count: %v", label, err)
	}
	n := len(items)
	if len(tri.items) != n || tri.Cells() != n*(n-1)/2 || len(work) != procs {
		t.Fatalf("%s: shape n=%d cells=%d work=%d, want %d/%d/%d", label, len(tri.items), tri.Cells(), len(work), n, n*(n-1)/2, procs)
	}
	wantPairs := brutePairs(d, freq)
	var wantF2 int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			w := wantPairs[[2]itemset.Item{items[a], items[b]}]
			if got := tri.Support(a, b); got != w {
				t.Fatalf("%s: pair (%d,%d) count %d, want %d", label, items[a], items[b], got, w)
			}
			if w >= minCount {
				wantF2++
			}
		}
	}
	f2 := tri.Frequent(minCount)
	if len(f2) != wantF2 {
		t.Fatalf("%s: F2 has %d pairs, want %d", label, len(f2), wantF2)
	}
	for i, f := range f2 {
		if i > 0 && !f2[i-1].Items.Less(f.Items) {
			t.Fatalf("%s: F2 out of lexicographic order at %d: %v then %v", label, i, f2[i-1].Items, f.Items)
		}
		if w := wantPairs[[2]itemset.Item{f.Items[0], f.Items[1]}]; f.Count != w {
			t.Fatalf("%s: F2 %v count %d, want %d", label, f.Items, f.Count, w)
		}
	}
}

// TestPassMatchesBruteForce is the property test of both passes over seeded
// generated databases at several supports and worker counts.
func TestPassMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		d, err := gen.Generate(gen.Params{N: 50, L: 12, I: 3, T: 7, D: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, minCount := range []int64{1, 6, 20} {
			for _, procs := range []int{1, 2, 3} {
				checkPass(t, fmt.Sprintf("seed %d min %d procs %d", seed, minCount, procs), d, minCount, procs)
			}
		}
	}
}

// TestPassEdgeShapes covers the degenerate inputs: no transactions, empty
// rows, rows holding only infrequent items, zero, one and two frequent
// items, and an immutable prefix view of a database still being appended to.
func TestPassEdgeShapes(t *testing.T) {
	build := func(numItems int, rows ...[]itemset.Item) *db.Database {
		d := db.New(numItems)
		for i, r := range rows {
			d.Append(int64(i), itemset.New(r...))
		}
		return d
	}
	wide := func(n int) []itemset.Item {
		r := make([]itemset.Item, n)
		for i := range r {
			r[i] = itemset.Item(i)
		}
		return r
	}
	cases := []struct {
		name     string
		d        *db.Database
		minCount int64
	}{
		{"no-rows", build(5), 1},
		{"empty-rows", build(5, nil, nil, nil), 1},
		{"n=0", build(6, []itemset.Item{0, 1}, []itemset.Item{2, 3}), 2},
		{"n=1", build(6, []itemset.Item{0, 1}, []itemset.Item{0, 3}, nil), 2},
		{"n=2", build(6, []itemset.Item{0, 4}, []itemset.Item{0, 4, 5}, []itemset.Item{1}), 2},
		{"infrequent-only-rows", build(8,
			[]itemset.Item{1, 2, 3}, []itemset.Item{5, 6}, []itemset.Item{1, 2, 3},
			[]itemset.Item{7}, nil, []itemset.Item{1, 2, 3, 7}), 3},
		{"rows-longer-than-scratch", build(130, wide(130), wide(130), wide(70)), 2},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 2, 4} {
			checkPass(t, fmt.Sprintf("%s procs %d", c.name, procs), c.d, c.minCount, procs)
		}
	}

	// A snapshot prefix must count exactly its own rows, not the parent's
	// later appends.
	rng := rand.New(rand.NewSource(4))
	parent := db.New(20)
	for i := 0; i < 200; i++ {
		var row []itemset.Item
		for it := 0; it < 20; it++ {
			if rng.Intn(4) == 0 {
				row = append(row, itemset.Item(it))
			}
		}
		parent.Append(int64(i), itemset.New(row...))
	}
	view := parent.SnapshotView()
	for i := 0; i < 100; i++ {
		parent.Append(int64(200+i), itemset.New(0, 1, 2, 3))
	}
	if view.Len() != 200 {
		t.Fatalf("view has %d rows, want 200", view.Len())
	}
	checkPass(t, "snapshot-view", view, 10, 3)
}

// TestWorkModelProcsInvariant pins that the pass's modelled work sums to the
// same total whatever the worker count: every ranked item and pair increment
// is counted once.
func TestWorkModelProcsInvariant(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 250, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	items := []itemset.Item{1, 3, 4, 8, 15, 22, 30}
	var ref int64 = -1
	for _, procs := range []int{1, 2, 3, 5} {
		pool := sched.NewPool(procs)
		_, work, err := Count(context.Background(), d, pool, items, 16, nil)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, w := range work {
			sum += w
		}
		if ref < 0 {
			ref = sum
		} else if sum != ref {
			t.Errorf("procs=%d: pass work %d != %d at procs=1", procs, sum, ref)
		}
	}
	if ref <= d.TotalItems() {
		t.Errorf("pass work %d does not exceed the item scan %d", ref, d.TotalItems())
	}
}

// TestFits checks the budget projection and the int32 overflow guard.
func TestFits(t *testing.T) {
	if !Fits(955, 2, 100000) {
		t.Error("T10.I4's 955 frequent items at 2 workers must fit the default budget")
	}
	if Fits(2, 1, 1<<31) {
		t.Error("a database longer than MaxInt32 rows must not fit int32 cells")
	}
	restore := SetBudgetForTesting(4 * 10) // ten cells at one worker
	defer restore()
	if !Fits(5, 1, 10) || Fits(5, 2, 10) || Fits(6, 1, 10) {
		t.Error("budget projection procs × n(n−1)/2 × 4 B is off")
	}
	if !Fits(0, 8, 10) || !Fits(1, 8, 10) {
		t.Error("zero pairs must always fit")
	}
}

// TestAddZeroAlloc pins the inner loop's zero-allocation guarantee (the
// static twin is the //armlint:noalloc annotation on Add).
func TestAddZeroAlloc(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 8, D: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tri := NewTriangle([]itemset.Item{0, 2, 5, 9, 11, 17, 20, 33}, d.NumItems())
	buf := make([]int32, 256)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < d.Len(); i++ {
			tri.Add(d.Items(i), buf)
		}
	})
	if allocs != 0 {
		t.Errorf("Add allocates %.1f times per database sweep, want 0", allocs)
	}
}
