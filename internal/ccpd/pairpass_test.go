package ccpd

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pairs"
	"repro/internal/robust"
	"repro/internal/robust/faultinj"
)

// TestPairPassBitIdentical: with Options.PairPass, CCPD (every partition
// mode) and PCCD return the hash-tree runs' frequent sets bit for bit, and
// iteration 2's work model is the pass's — C(|F1|,2) implicit candidates, no
// generation or build work. Over the triangle budget the option falls back
// to the hash tree, work model included.
func TestPairPassBitIdentical(t *testing.T) {
	d := testDB(t)
	for _, mode := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionDynamic, PartitionStealing} {
		opts := robustOpts()
		opts.DBPart = mode
		want, wantSt, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		on := opts
		on.PairPass = true
		got, st, err := Mine(context.Background(), d, on)
		if err != nil {
			t.Fatalf("%s pair pass: %v", mode, err)
		}
		assertIdenticalByK(t, mode.String()+" pair pass", got.ByK, want.ByK)
		n := len(want.ByK[1])
		it2 := st.PerIter[1]
		if it2.K != 2 || it2.Candidates != n*(n-1)/2 || it2.Frequent != len(want.ByK[2]) ||
			it2.BuildWork != 0 || it2.GenWork != nil || it2.ReduceWork != int64(n*(n-1)/2) {
			t.Errorf("%s: k=2 timing %+v is not the pair pass's", mode, it2)
		}
		var passWork int64
		for _, w := range it2.CountWork {
			passWork += w
		}
		if passWork <= d.TotalItems() {
			t.Errorf("%s: k=2 CountWork %d does not exceed one item scan", mode, passWork)
		}
		for i := 2; i < len(st.PerIter); i++ {
			if !reflect.DeepEqual(st.PerIter[i].CountWork, wantSt.PerIter[i].CountWork) {
				t.Errorf("%s iter %d: CountWork %v != hash-tree run's %v", mode, i, st.PerIter[i].CountWork, wantSt.PerIter[i].CountWork)
			}
		}

		restore := pairs.SetBudgetForTesting(0)
		fb, fbSt, err := Mine(context.Background(), d, on)
		restore()
		if err != nil {
			t.Fatalf("%s fallback: %v", mode, err)
		}
		assertIdenticalByK(t, mode.String()+" fallback", fb.ByK, want.ByK)
		if fbSt.ModelTime() != wantSt.ModelTime() {
			t.Errorf("%s: over-budget ModelTime %d != hash-tree %d", mode, fbSt.ModelTime(), wantSt.ModelTime())
		}
	}

	pOpts := robustOpts()
	want, _, err := MinePCCD(context.Background(), d, pOpts)
	if err != nil {
		t.Fatal(err)
	}
	pOpts.PairPass = true
	for _, budget := range []int64{256 << 20, 0} {
		restore := pairs.SetBudgetForTesting(budget)
		got, _, err := MinePCCD(context.Background(), d, pOpts)
		restore()
		if err != nil {
			t.Fatalf("pccd budget %d: %v", budget, err)
		}
		assertIdenticalByK(t, "pccd pair pass", got.ByK, want.ByK)
	}
}

// TestPairPassCancelMidPass cancels from inside the pair pass: CCPD and
// PCCD return a *robust.CanceledError naming count/k=2 together with the
// completed iteration 1, and no partial F2.
func TestPairPassCancelMidPass(t *testing.T) {
	d := testDB(t)
	for _, pccd := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := robustOpts()
		opts.PairPass = true
		opts.FaultInj = faultinj.New(faultinj.Rule{
			Phase: "count", K: 2, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
			Action: faultinj.Call, Do: cancel, Once: true,
		})
		mine := Mine
		if pccd {
			mine = MinePCCD
		}
		res, _, err := mine(ctx, d, opts)
		cancel()
		var ce *robust.CanceledError
		if !errors.As(err, &ce) || ce.Phase != "count" || ce.K != 2 {
			t.Fatalf("pccd=%v: err = %v, want a CanceledError at count/2", pccd, err)
		}
		if res == nil || len(res.ByK) != 2 || len(res.ByK[1]) == 0 {
			t.Fatalf("pccd=%v: partial result should hold exactly F1", pccd)
		}
	}
}

// TestPairPassPanicContained injects a worker panic into the pair pass:
// it surfaces as a *robust.WorkerPanicError at count/k=2.
func TestPairPassPanicContained(t *testing.T) {
	d := testDB(t)
	for _, pccd := range []bool{false, true} {
		opts := robustOpts()
		opts.PairPass = true
		opts.FaultInj = faultinj.New(faultinj.Rule{
			Phase: "count", K: 2, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
			Action: faultinj.Panic, Once: true,
		})
		mine := Mine
		if pccd {
			mine = MinePCCD
		}
		res, _, err := mine(context.Background(), d, opts)
		var wp *robust.WorkerPanicError
		if !errors.As(err, &wp) || wp.Phase != "count" || wp.K != 2 {
			t.Fatalf("pccd=%v: err = %v, want a WorkerPanicError at count/2", pccd, err)
		}
		if res != nil {
			t.Errorf("pccd=%v: a contained panic must not return a result", pccd)
		}
	}
}

// TestPairPassResume: a checkpoint taken after iteration 1 resumes into the
// pair pass bit-identically to a straight pair-pass run, and Resume refuses
// a checkpoint whose PairPass setting differs from the offered options.
func TestPairPassResume(t *testing.T) {
	d := testDB(t)
	opts := robustOpts()
	opts.PairPass = true
	straight, straightSt, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pp.ckpt")
	bounded := opts
	bounded.Checkpoint = path
	bounded.MaxK = 1
	if _, _, err := Mine(context.Background(), d, bounded); err != nil {
		t.Fatal(err)
	}
	resumed := bounded
	resumed.MaxK = 0
	res, st, err := Resume(context.Background(), path, d, resumed)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalByK(t, "resumed pair pass", res.ByK, straight.ByK)
	if st.ModelTime() != straightSt.ModelTime() {
		t.Errorf("resumed ModelTime %d != straight %d", st.ModelTime(), straightSt.ModelTime())
	}

	for _, written := range []bool{false, true} {
		p := filepath.Join(t.TempDir(), "flip.ckpt")
		w := robustOpts()
		w.PairPass = written
		w.Checkpoint = p
		w.MaxK = 2
		if _, _, err := Mine(context.Background(), d, w); err != nil {
			t.Fatal(err)
		}
		flipped := w
		flipped.PairPass = !written
		if _, _, err := Resume(context.Background(), p, d, flipped); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("checkpoint with PairPass=%v resumed with %v: err = %v, want a fingerprint mismatch", written, !written, err)
		}
	}
}
