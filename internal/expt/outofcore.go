// Out-of-core study: the paper's Section 6.3 discusses runs where the
// database does not fit in memory and every processor shares one disk —
// previously modelled here only as SerialIOFraction scalars. The segmented
// store makes that stage real: this study mines the same database in RAM,
// through the synchronous load-then-count loop, and through the
// double-buffered prefetch pipeline, with a synthetic per-segment load
// latency calibrated to the counting time so I/O and compute are comparable.
package expt

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db/seg"
	"repro/internal/gen"
)

// oocSegments is how many segments the study's store is cut into: few and
// large, so per-segment counting dwarfs scheduler wake latency and the
// overlap is attributable to the prefetcher rather than timer noise.
const oocSegments = 4

// OutOfCore mines T10.I4 in RAM and out-of-core (sync and double-buffered)
// and reports wall clock, stall share, and the speedup double buffering
// recovers. The three runs must agree on every frequent itemset — the study
// doubles as an end-to-end equivalence probe for the segmented path.
func (r *Runner) OutOfCore(w io.Writer) error {
	d, name, err := r.Dataset(gen.Params{T: 10, I: 4, D: 100000})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "exptooc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.arseg")
	segTx := (d.Len() + oocSegments - 1) / oocSegments
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: segTx}); err != nil {
		return err
	}
	rd, err := seg.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()

	procs := r.Procs[len(r.Procs)-1]
	opts := ccpd.Options{
		Options: apriori.Options{AbsSupport: absSupport(d.Len(), 0.0025), ShortCircuit: true},
		Procs:   procs,
	}

	t0 := time.Now()
	want, _, err := ccpd.Mine(context.Background(), d, opts)
	if err != nil {
		return err
	}
	ramWall := time.Since(t0)

	// Calibrate the synthetic load latency to the measured counting time per
	// segment visit (delay-free sync pass), then measure both pipeline modes.
	_, cal, err := ccpd.MineSegmented(context.Background(), rd, ccpd.SegmentedOptions{Options: opts, MemBudget: 1})
	if err != nil {
		return err
	}
	calPipe := cal.OutOfCore
	delay := time.Duration(calPipe.CountNS / int64(calPipe.Segments))
	if delay < 500*time.Microsecond {
		delay = 500 * time.Microsecond
	}

	type row struct {
		mode string
		wall time.Duration
		pipe *seg.PipelineStats
		res  *apriori.Result
	}
	rows := []row{{mode: "in-RAM", wall: ramWall, res: want}}
	for _, m := range []struct {
		mode   string
		budget int64
	}{{"ooc sync", 1}, {"ooc double-buffered", 0}} {
		t0 := time.Now()
		res, st, err := ccpd.MineSegmented(context.Background(), rd, ccpd.SegmentedOptions{
			Options: opts, MemBudget: m.budget, LoadDelay: delay,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", m.mode, err)
		}
		rows = append(rows, row{mode: m.mode, wall: time.Since(t0), pipe: st.OutOfCore, res: res})
	}
	for _, rw := range rows[1:] {
		if err := sameFrequent(rw.res, want); err != nil {
			return fmt.Errorf("%s disagrees with in-RAM: %w", rw.mode, err)
		}
	}

	tab := &Table{
		Title: fmt.Sprintf("Out-of-core mining: %s, %d segments, %d procs, load delay %v (calibrated)",
			name, rd.NumSegments(), procs, delay.Round(10*time.Microsecond)),
		Header: []string{"mode", "wall ms", "stall %", "loads", "passes", "vs sync"},
	}
	syncWall := rows[1].wall
	for _, rw := range rows {
		stall, loads, passes := "-", "-", "-"
		if rw.pipe != nil {
			stall = f1(100 * rw.pipe.StallFraction())
			loads = fmt.Sprintf("%d", rw.pipe.Segments)
			passes = fmt.Sprintf("%d", rw.pipe.Passes)
		}
		speedup := "-"
		if rw.pipe != nil && rw.wall > 0 {
			speedup = f2s(float64(syncWall) / float64(rw.wall))
		}
		tab.AddRow(rw.mode, f1(float64(rw.wall.Microseconds())/1000), stall, loads, passes, speedup)
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "all three modes mined the identical %d frequent itemsets\n", want.NumFrequent())
	return nil
}

// sameFrequent checks two results enumerate identical frequent itemsets with
// identical supports.
func sameFrequent(got, want *apriori.Result) error {
	if got.NumFrequent() != want.NumFrequent() {
		return fmt.Errorf("%d frequent itemsets, want %d", got.NumFrequent(), want.NumFrequent())
	}
	for k := 1; k < len(want.ByK); k++ {
		if k >= len(got.ByK) {
			if len(want.ByK[k]) > 0 {
				return fmt.Errorf("missing k=%d", k)
			}
			continue
		}
		if len(got.ByK[k]) != len(want.ByK[k]) {
			return fmt.Errorf("k=%d has %d sets, want %d", k, len(got.ByK[k]), len(want.ByK[k]))
		}
		for i, f := range want.ByK[k] {
			g := got.ByK[k][i]
			if !g.Items.Equal(f.Items) || g.Count != f.Count {
				return fmt.Errorf("k=%d[%d]: %v/%d, want %v/%d", k, i, g.Items, g.Count, f.Items, f.Count)
			}
		}
	}
	return nil
}
