package ccpd

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/robust"
	"repro/internal/robust/faultinj"
)

// robustOpts is the base option set of the robustness tests: 4 processors,
// a small chunk so the dynamic modes have plenty of claims, and the bitonic
// balance the paper defaults to.
func robustOpts() Options {
	return Options{
		Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
		Procs:   4, Balance: BalanceBitonic, ChunkSize: 64,
	}
}

// assertIdenticalByK asserts bit-identical frequent sets: same levels, same
// order, same items, same counts. Level 0 is normalized (the checkpoint
// reader materializes it as an empty slice where a fresh run leaves nil).
func assertIdenticalByK(t *testing.T, label string, got, want [][]apriori.FrequentItemset) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", label, len(got), len(want))
	}
	for k := 1; k < len(want); k++ {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("%s: level %d has %d sets, want %d", label, k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if !reflect.DeepEqual(got[k][i], want[k][i]) {
				t.Fatalf("%s: level %d entry %d = %+v, want %+v", label, k, i, got[k][i], want[k][i])
			}
		}
	}
}

// TestPanicContainedPerPhase injects a worker panic into every phase of the
// CCPD pipeline and asserts it surfaces as a *robust.WorkerPanicError naming
// the phase and iteration — with the process (and the test binary) alive.
func TestPanicContainedPerPhase(t *testing.T) {
	d := testDB(t)
	cases := []struct {
		phase string
		k     int
	}{
		{"f1", 1},
		{"gen", 2},
		{"build", 2},
		{"count", 2},
		{"reduce", 2},
	}
	for _, c := range cases {
		opts := robustOpts()
		opts.FaultInj = faultinj.New(faultinj.Rule{
			Phase: c.phase, K: c.k, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
			Action: faultinj.Panic, Once: true,
		})
		res, stats, err := Mine(context.Background(), d, opts)
		var wp *robust.WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("phase %s: Mine returned %v, want WorkerPanicError", c.phase, err)
		}
		if wp.Phase != c.phase || wp.K != c.k {
			t.Errorf("phase %s: error names phase=%s k=%d, want %s/%d", c.phase, wp.Phase, wp.K, c.phase, c.k)
		}
		if !strings.Contains(err.Error(), "faultinj") {
			t.Errorf("phase %s: error does not carry the panic value: %v", c.phase, err)
		}
		if res != nil || stats != nil {
			t.Errorf("phase %s: panic returned a result", c.phase)
		}
		if opts.FaultInj.Fired() == 0 {
			t.Errorf("phase %s: injector never fired", c.phase)
		}
	}

	// The process survived five injected panics; a clean mine still works.
	res, _, err := Mine(context.Background(), d, robustOpts())
	if err != nil {
		t.Fatalf("clean mine after contained panics: %v", err)
	}
	seq, err := apriori.Mine(d, apriori.Options{MinSupport: 0.01, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "after panics", res, seq)
}

// TestPCCDPanicContained mirrors the containment contract for the PCCD foil.
func TestPCCDPanicContained(t *testing.T) {
	d := testDB(t)
	for _, c := range []struct {
		phase string
		k     int
	}{
		{"f1", 1}, {"build", 2}, {"count", 2}, {"reduce", 2},
	} {
		opts := robustOpts()
		opts.FaultInj = faultinj.New(faultinj.Rule{
			Phase: c.phase, K: c.k, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
			Action: faultinj.Panic, Once: true,
		})
		res, _, err := MinePCCD(context.Background(), d, opts)
		var wp *robust.WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("pccd %s: MinePCCD returned %v, want WorkerPanicError", c.phase, err)
		}
		if wp.Phase != c.phase || wp.K != c.k {
			t.Errorf("pccd %s: error names phase=%s k=%d, want %s/%d", c.phase, wp.Phase, wp.K, c.phase, c.k)
		}
		if res != nil {
			t.Errorf("pccd %s: panic returned a result", c.phase)
		}
	}
}

// TestPanicChunkAttribution pins the chunk provenance of a dynamic-mode
// counting panic: the error names the chunk the worker had claimed.
func TestPanicChunkAttribution(t *testing.T) {
	d := testDB(t)
	opts := robustOpts()
	opts.DBPart = PartitionDynamic
	opts.FaultInj = faultinj.New(faultinj.Rule{
		Phase: "count", K: faultinj.Wildcard, Worker: faultinj.Wildcard, Chunk: 3,
		Action: faultinj.Panic, Once: true,
	})
	_, _, err := Mine(context.Background(), d, opts)
	var wp *robust.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("Mine returned %v, want WorkerPanicError", err)
	}
	if wp.Chunk != 3 {
		t.Errorf("Chunk = %d, want 3", wp.Chunk)
	}
	if wp.Phase != "count" {
		t.Errorf("Phase = %q, want count", wp.Phase)
	}
}

// TestCancelBeforeStart: a context canceled up front yields no result and a
// CanceledError naming the first phase, for both algorithms.
func TestCancelBeforeStart(t *testing.T) {
	d := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats, err := Mine(ctx, d, robustOpts())
	var ce *robust.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Mine = %v, want CanceledError wrapping context.Canceled", err)
	}
	if ce.Phase != "f1" || res != nil || stats != nil {
		t.Errorf("pre-canceled run: phase=%q res=%v stats=%v", ce.Phase, res, stats)
	}
	if res, _, err := MinePCCD(ctx, d, robustOpts()); !errors.As(err, &ce) || res != nil {
		t.Errorf("pre-canceled PCCD: res=%v err=%v", res, err)
	}
}

// TestCancelMidRun cancels from inside the k=2 counting phase (via a Call
// rule) and asserts the partial-result contract: every iteration completed
// before the cancellation point is returned, with a CanceledError naming the
// interrupted phase.
func TestCancelMidRun(t *testing.T) {
	d := testDB(t)
	straight, _, err := Mine(context.Background(), d, robustOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := robustOpts()
	opts.FaultInj = faultinj.New(faultinj.Rule{
		Phase: "count", K: 2, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
		Action: faultinj.Call, Do: cancel, Once: true,
	})
	res, stats, err := Mine(ctx, d, opts)
	var ce *robust.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Mine = %v, want CanceledError wrapping context.Canceled", err)
	}
	if ce.Phase != "count" || ce.K != 2 {
		t.Errorf("canceled at phase=%q k=%d, want count/2", ce.Phase, ce.K)
	}
	if res == nil || stats == nil {
		t.Fatal("mid-run cancel returned no partial result")
	}
	if len(res.ByK) != 2 {
		t.Fatalf("partial result has %d levels, want 2 (only k=1 completed)", len(res.ByK))
	}
	assertIdenticalByK(t, "partial F1", res.ByK[:2], straight.ByK[:2])
}

// TestCheckpointResumeBitIdentical: a MaxK-bounded checkpointed run resumed
// with the bound lifted reproduces the straight-through run bit for bit —
// frequent sets AND the deterministic work model — in every partition mode.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	d := testDB(t)
	for _, mode := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionDynamic, PartitionStealing} {
		opts := robustOpts()
		opts.DBPart = mode
		straightRes, straightSt, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "run.ckpt")
		bounded := opts
		bounded.Checkpoint = path
		bounded.MaxK = 2
		if _, _, err := Mine(context.Background(), d, bounded); err != nil {
			t.Fatalf("%s bounded: %v", mode, err)
		}

		resumed := bounded
		resumed.MaxK = 0
		res, st, err := Resume(context.Background(), path, d, resumed)
		if err != nil {
			t.Fatalf("%s resume: %v", mode, err)
		}
		assertIdenticalByK(t, mode.String(), res.ByK, straightRes.ByK)
		if res.MinCount != straightRes.MinCount {
			t.Errorf("%s: MinCount %d != %d", mode, res.MinCount, straightRes.MinCount)
		}
		if got, want := st.ModelTime(), straightSt.ModelTime(); got != want {
			t.Errorf("%s: resumed ModelTime %d != straight %d", mode, got, want)
		}
		if len(st.PerIter) != len(straightSt.PerIter) {
			t.Fatalf("%s: %d iterations recorded, want %d", mode, len(st.PerIter), len(straightSt.PerIter))
		}
		for i := range st.PerIter {
			if !reflect.DeepEqual(st.PerIter[i].CountWork, straightSt.PerIter[i].CountWork) {
				t.Errorf("%s iter %d: CountWork %v != %v", mode, i,
					st.PerIter[i].CountWork, straightSt.PerIter[i].CountWork)
			}
		}

		// The resumed run reached the fixpoint and rewrote the checkpoint
		// with Done set: a second resume returns immediately, identically.
		res2, st2, err := Resume(context.Background(), path, d, resumed)
		if err != nil {
			t.Fatalf("%s resume of done checkpoint: %v", mode, err)
		}
		assertIdenticalByK(t, mode.String()+" done", res2.ByK, straightRes.ByK)
		if got, want := st2.ModelTime(), straightSt.ModelTime(); got != want {
			t.Errorf("%s: done-resume ModelTime %d != %d", mode, got, want)
		}
	}
}

// TestKillAndResume is the crash story end to end: a checkpointed run is
// cancelled from inside iteration 2's counting phase ("the kill"), and a
// fresh Resume completes it bit-identically to a run that was never killed.
func TestKillAndResume(t *testing.T) {
	d := testDB(t)
	opts := robustOpts()
	opts.DBPart = PartitionStealing
	straightRes, straightSt, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := opts
	killed.Checkpoint = path
	killed.FaultInj = faultinj.New(faultinj.Rule{
		Phase: "count", K: 2, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
		Action: faultinj.Call, Do: cancel, Once: true,
	})
	if _, _, err := Mine(ctx, d, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v, want cancellation", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("killed run left no checkpoint: %v", err)
	}

	resumed := opts
	resumed.Checkpoint = path
	res, st, err := Resume(context.Background(), path, d, resumed)
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	assertIdenticalByK(t, "kill+resume", res.ByK, straightRes.ByK)
	if got, want := st.ModelTime(), straightSt.ModelTime(); got != want {
		t.Errorf("kill+resume ModelTime %d != straight %d", got, want)
	}
}

// TestResumePinnedModelTime repeats the TestModelTimePinned gate across a
// checkpoint boundary: bounded run + resume must land on the exact pinned
// work-model total of a straight run — the strongest bit-identity check the
// repo has.
func TestResumePinnedModelTime(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const pinned = 3719619 // PartitionBlock, procs=4 (see TestModelTimePinned)
	opts := Options{
		Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
		Procs:   4, Balance: BalanceBitonic, AdaptiveMinUnits: 1,
		DBPart: PartitionBlock,
	}
	path := filepath.Join(t.TempDir(), "pinned.ckpt")
	bounded := opts
	bounded.Checkpoint = path
	bounded.MaxK = 3
	if _, _, err := Mine(context.Background(), d, bounded); err != nil {
		t.Fatal(err)
	}
	resumed := opts
	_, st, err := Resume(context.Background(), path, d, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.ModelTime(); got != pinned {
		t.Errorf("resumed ModelTime = %d, want pinned %d", got, pinned)
	}
}

// TestResumeValidation: a checkpoint must be refused against the wrong
// database, a different support threshold, different processor count or a
// different work-model option, and corrupt files must error cleanly.
func TestResumeValidation(t *testing.T) {
	d := testDB(t)
	opts := robustOpts()
	path := filepath.Join(t.TempDir(), "v.ckpt")
	ckOpts := opts
	ckOpts.Checkpoint = path
	ckOpts.MaxK = 2
	if _, _, err := Mine(context.Background(), d, ckOpts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	otherDB, err := gen.Generate(gen.Params{N: 80, L: 20, I: 4, T: 8, D: 800, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    *db.Database
		opts Options
		want string
	}{
		{"wrong database", otherDB, opts, "different database"},
		{"different support", d, func() Options { o := opts; o.MinSupport = 0.05; return o }(), "min count"},
		{"different procs", d, func() Options { o := opts; o.Procs = 2; return o }(), "Procs"},
		{"different balance", d, func() Options { o := opts; o.Balance = BalanceBlock; return o }(), "fingerprint"},
		{"different partition", d, func() Options { o := opts; o.DBPart = PartitionDynamic; return o }(), "fingerprint"},
	}
	for _, c := range cases {
		_, _, err := Resume(ctx, path, c.d, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Resume = %v, want error containing %q", c.name, err, c.want)
		}
	}

	// Corrupt file: flip a byte inside the payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:len(raw)/2]
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(ctx, bad, d, opts); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, _, err := Resume(ctx, filepath.Join(t.TempDir(), "absent.ckpt"), d, opts); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestBatchingBitIdentical: a memory-budget run (many small candidate
// batches, one database pass each) must reproduce the unbatched frequent
// sets bit for bit, in every partition mode.
func TestBatchingBitIdentical(t *testing.T) {
	d := testDB(t)
	for _, mode := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionDynamic, PartitionStealing} {
		opts := robustOpts()
		opts.DBPart = mode
		straight, _, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		batched := opts
		batched.MaxCandidatesInMemory = 7
		res, st, err := Mine(context.Background(), d, batched)
		if err != nil {
			t.Fatalf("%s batched: %v", mode, err)
		}
		assertIdenticalByK(t, mode.String(), res.ByK, straight.ByK)
		saw := 0
		for _, it := range st.PerIter {
			if it.Batches > 1 {
				saw++
			}
		}
		if saw == 0 {
			t.Errorf("%s: budget of 7 never split an iteration into batches", mode)
		}
	}
}

// TestBatchedCheckpointResume composes the two new mechanisms: a batched,
// checkpointed run killed at MaxK resumes to the same answer as an
// unbatched straight run.
func TestBatchedCheckpointResume(t *testing.T) {
	d := testDB(t)
	opts := robustOpts()
	straight, _, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.ckpt")
	bounded := opts
	bounded.MaxCandidatesInMemory = 9
	bounded.Checkpoint = path
	bounded.MaxK = 2
	if _, _, err := Mine(context.Background(), d, bounded); err != nil {
		t.Fatal(err)
	}
	resumed := bounded
	resumed.MaxK = 0
	res, _, err := Resume(context.Background(), path, d, resumed)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalByK(t, "batched resume", res.ByK, straight.ByK)
}
