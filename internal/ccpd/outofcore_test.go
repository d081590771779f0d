package ccpd

import (
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
	"repro/internal/oracle"
	"repro/internal/robust"
)

// segStore writes d into a segmented store and opens it.
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

// TestSegmentedMatchesInRAM is the core equivalence gate: for every supported
// partition mode, mining the segmented store — with segment boundaries that
// do NOT align with the chunk grid, so chunks straddle segment edges — must
// reproduce the in-RAM run's frequent sets AND its deterministic work model
// (per-iteration CountWork, ModelTime, IdleWork) bit-for-bit. Claims/steals
// are runtime figures and are only checked for consistency, not equality.
func TestSegmentedMatchesInRAM(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 700, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// SegTx=300 with ChunkSize=64: chunk 4 spans tx [256,320) across the
	// segment edge at 300, likewise around 600 — the straddle cases.
	r := segStore(t, d, seg.WriterOptions{SegTx: 300})
	if r.NumSegments() < 2 {
		t.Fatalf("want multiple segments, got %d", r.NumSegments())
	}
	for _, mode := range []DBPartition{PartitionBlock, PartitionDynamic, PartitionStealing} {
		opts := Options{
			Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
			Procs:   4, Balance: BalanceBitonic, DBPart: mode, ChunkSize: 64,
		}
		want, wantStats, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatalf("%s in-RAM: %v", mode, err)
		}
		for _, budget := range []int64{1, 0} { // sync and double-buffered
			res, stats, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: opts, MemBudget: budget})
			if err != nil {
				t.Fatalf("%s budget %d: %v", mode, budget, err)
			}
			label := mode.String()
			oracle.SameResult(t, label, res, want)
			if res.MinCount != want.MinCount {
				t.Errorf("%s: MinCount %d != %d", label, res.MinCount, want.MinCount)
			}
			if got, w := stats.ModelTime(), wantStats.ModelTime(); got != w {
				t.Errorf("%s budget %d: ModelTime %d != in-RAM %d", label, budget, got, w)
			}
			if got, w := stats.CountIdleWork(), wantStats.CountIdleWork(); got != w {
				t.Errorf("%s budget %d: IdleWork %d != in-RAM %d", label, budget, got, w)
			}
			if len(stats.PerIter) != len(wantStats.PerIter) {
				t.Fatalf("%s budget %d: %d iterations != %d", label, budget, len(stats.PerIter), len(wantStats.PerIter))
			}
			for i := range stats.PerIter {
				g, w := stats.PerIter[i], wantStats.PerIter[i]
				for p := range w.CountWork {
					if g.CountWork[p] != w.CountWork[p] {
						t.Errorf("%s budget %d: iter k=%d CountWork[%d] = %d, want %d",
							label, budget, w.K, p, g.CountWork[p], w.CountWork[p])
					}
				}
				// Dynamic modes: every chunk is claimed at least once; the
				// segmented run adds one claim per straddled chunk.
				if mode.Dynamic() {
					var claims int64
					for _, c := range g.ChunksClaimed {
						claims += c
					}
					var wantClaims int64
					for _, c := range w.ChunksClaimed {
						wantClaims += c
					}
					if claims < wantClaims {
						t.Errorf("%s budget %d: iter k=%d claims %d < in-RAM %d",
							label, budget, w.K, claims, wantClaims)
					}
				}
			}
			if stats.OutOfCore == nil || stats.OutOfCore.Segments == 0 {
				t.Errorf("%s budget %d: missing OutOfCore pipeline stats", label, budget)
			}
		}
	}
}

// TestSegmentedBeyondArenaLimit is the headline acceptance test: a database
// whose total item arena exceeds the (test-lowered) in-RAM ceiling mines via
// the segmented path with zero ErrArenaFull, producing the same frequent
// sets and pinned work-model totals as an unconstrained in-RAM run.
func TestSegmentedBeyondArenaLimit(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
		Procs:   4, Balance: BalanceBitonic, AdaptiveMinUnits: 1,
		DBPart: PartitionBlock,
	}
	want, wantStats, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Lower the arena ceiling far below the dataset's ~20k item occurrences:
	// a single-arena load of this database is now impossible, and the writer
	// clamps its segments to fit the reduced limit.
	restore := db.SetArenaLimitForTesting(2048)
	defer restore()
	if d.TotalItems() <= db.ArenaLimit() {
		t.Fatalf("test premise broken: %d occurrences fit the %d-item limit", d.TotalItems(), db.ArenaLimit())
	}
	r := segStore(t, d, seg.WriterOptions{})
	if r.NumSegments() < 5 {
		t.Fatalf("want many segments under the lowered limit, got %d", r.NumSegments())
	}
	res, stats, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "beyond-arena", res, want)
	// The pinned figure from TestModelTimePinned (PartitionBlock, procs=4):
	// the out-of-core path must not move the work model.
	const pinned = 3719619
	if got := stats.ModelTime(); got != pinned || got != wantStats.ModelTime() {
		t.Errorf("ModelTime = %d, want pinned %d (in-RAM %d)", got, pinned, wantStats.ModelTime())
	}
}

// TestSegmentedMappedLoader repeats the equivalence check through the mmap
// loader when the platform offers it.
func TestSegmentedMappedLoader(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 50, L: 12, I: 3, T: 6, D: 400, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 150}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.OpenMapped(path)
	if err != nil {
		t.Skipf("OpenMapped unavailable: %v", err)
	}
	defer r.Close()
	opts := Options{
		Options: apriori.Options{MinSupport: 0.02, ShortCircuit: true},
		Procs:   3, DBPart: PartitionDynamic, ChunkSize: 64,
	}
	want, _, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "mmap", res, want)
}

func TestSegmentedRejectsUnsupported(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{})
	base := apriori.Options{MinSupport: 0.05}
	if _, _, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: Options{Options: base, DBPart: PartitionWorkload}}); err == nil ||
		!strings.Contains(err.Error(), "workload") {
		t.Errorf("workload partition: err = %v, want rejection", err)
	}
	if _, _, err := MineSegmented(context.Background(), r, SegmentedOptions{Options: Options{Options: base, Checkpoint: "x.ckpt"}}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("checkpoint: err = %v, want rejection", err)
	}
}

func TestSegmentedCancellation(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 600, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first pass
	_, _, err = MineSegmented(ctx, r, SegmentedOptions{Options: Options{
		Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true}, Procs: 2,
	}})
	var ce *robust.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *robust.CanceledError", err)
	}

	// Cancel mid-run: the partial result covers completed iterations only.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	res, _, err := MineSegmented(ctx2, r, SegmentedOptions{
		Options: Options{
			Options: apriori.Options{MinSupport: 0.005, ShortCircuit: true},
			Procs:   2, DBPart: PartitionDynamic, ChunkSize: 16,
		},
		LoadDelay: time.Millisecond,
	})
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("mid-run cancel: err = %v, want nil or CanceledError", err)
	}
	// A cancellation during iteration 1 legitimately returns no result (the
	// f1 counts are partial); past it, the completed iterations must survive.
	if err != nil && res != nil && res.NumFrequent() == 0 {
		t.Fatal("partial result present but empty")
	}
	_ = res
}
