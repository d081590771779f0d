package vbit

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/robust"
)

func segStore(t *testing.T, d *db.Database, wopts seg.WriterOptions) *seg.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.arseg")
	if err := seg.WriteDatabase(path, d, wopts); err != nil {
		t.Fatalf("WriteDatabase: %v", err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestSegmentedMatchesInRAM: the level-wise out-of-core vertical miner must
// reproduce both sequential Apriori and the in-RAM dEclat engine exactly —
// same frequent sets, same supports, same MinCount — across the layout
// spectrum and for sync (budget 1) and double-buffered (budget 0) pipelines.
func TestSegmentedMatchesInRAM(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 700, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 150})
	if r.NumSegments() < 4 {
		t.Fatalf("want >= 4 segments, got %d", r.NumSegments())
	}
	want, err := apriori.Mine(d, apriori.Options{MinSupport: 0.01, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	vres, _, err := Mine(context.Background(), d, Options{MinSupport: 0.01, Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "in-RAM-vbit", vres, want)
	cutoffs := map[string]float64{"mixed-layout": 0, "all-bitmap": 1e-9, "all-tidlist": 1.5}
	for cn, cutoff := range cutoffs {
		for _, budget := range []int64{1, 0} {
			res, stats, err := MineSegmented(context.Background(), r, SegmentedOptions{
				Options:   Options{MinSupport: 0.01, Procs: 3, DensityCutoff: cutoff},
				MemBudget: budget,
			})
			if err != nil {
				t.Fatalf("%s budget %d: %v", cn, budget, err)
			}
			oracle.SameResult(t, cn, res, want)
			if res.MinCount != want.MinCount {
				t.Errorf("%s: MinCount %d != %d", cn, res.MinCount, want.MinCount)
			}
			if stats.Pipeline.Segments == 0 || stats.Levels < 2 {
				t.Errorf("%s budget %d: implausible stats %+v", cn, budget, stats)
			}
			if budget == 0 && !stats.Pipeline.Overlapped {
				t.Errorf("%s: default budget should double-buffer", cn)
			}
			// One streaming pass per mined level plus the candidate-free tail.
			if stats.Pipeline.Passes < stats.Levels {
				t.Errorf("%s: %d passes for %d levels", cn, stats.Pipeline.Passes, stats.Levels)
			}
		}
	}
}

// TestSegmentedBeyondArenaLimit mines a store whose item arena exceeds the
// (test-lowered) single-arena ceiling — impossible to load in RAM — and must
// match the reference mined before the limit dropped.
func TestSegmentedBeyondArenaLimit(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := apriori.Mine(d, apriori.Options{AbsSupport: 10, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	restore := db.SetArenaLimitForTesting(2048)
	defer restore()
	if d.TotalItems() <= db.ArenaLimit() {
		t.Fatalf("test premise broken: %d occurrences fit the limit", d.TotalItems())
	}
	r := segStore(t, d, seg.WriterOptions{})
	if r.NumSegments() < 5 {
		t.Fatalf("want many segments, got %d", r.NumSegments())
	}
	res, stats, err := MineSegmented(context.Background(), r, SegmentedOptions{
		Options: Options{AbsSupport: 10, Procs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "beyond-arena", res, want)
	if stats.Pipeline.Segments < stats.Levels*r.NumSegments() {
		t.Errorf("pipeline saw %d segment visits for %d levels x %d segments",
			stats.Pipeline.Segments, stats.Levels, r.NumSegments())
	}
}

func TestSegmentedMaxK(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	full, _, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: Options{MinSupport: 0.02, Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for maxK := 1; maxK <= 3; maxK++ {
		res, _, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: Options{MinSupport: 0.02, Procs: 2, MaxK: maxK}})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.ByK) - 1; got > maxK {
			t.Errorf("MaxK=%d: results reach k=%d", maxK, got)
		}
		for k := 1; k <= maxK && k < len(full.ByK); k++ {
			if len(res.ByK[k]) != len(full.ByK[k]) {
				t.Errorf("MaxK=%d: k=%d has %d sets, want %d", maxK, k, len(res.ByK[k]), len(full.ByK[k]))
			}
		}
	}
}

func TestSegmentedCancellation(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 600, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = MineSegmented(ctx, r, SegmentedOptions{Options: Options{MinSupport: 0.01, Procs: 2}})
	var ce *robust.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("pre-canceled: err = %v, want *robust.CanceledError", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel2()
	}()
	res, _, err := MineSegmented(ctx2, r, SegmentedOptions{
		Options:   Options{MinSupport: 0.005, Procs: 2},
		LoadDelay: time.Millisecond,
	})
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("mid-run cancel: err = %v, want nil or CanceledError", err)
	}
	// A cancel during f1 legitimately yields no result; past it, completed
	// levels survive in the partial result.
	if err != nil && res != nil && len(res.ByK) > 1 && len(res.ByK[1]) == 0 {
		t.Error("partial result present but empty at k=1")
	}
	// The reader must be reusable after an aborted pass.
	if _, _, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: Options{MinSupport: 0.01, Procs: 2}}); err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
}

func TestSegmentedObsSpans(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	rec := obs.NewRecorder(2)
	if _, _, err := MineSegmented(context.Background(), r, SegmentedOptions{
		Options: Options{MinSupport: 0.02, Procs: 2, Obs: rec},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seg_load", "seg_count"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %q events", want)
		}
	}
}
