package expt

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/mem"
	"repro/internal/partition"
)

// Support levels used throughout the evaluation.
const (
	SupportHigh = 0.005 // 0.5%
	SupportLow  = 0.001 // 0.1%
)

// ccpdOpts builds parallel options for one optimization combination.
func ccpdOpts(minCount int64, procs int, comp, tree, sc bool) ccpd.Options {
	o := ccpd.Options{
		Options: apriori.Options{AbsSupport: minCount, ShortCircuit: sc},
		Procs:   procs,
		Counter: hashtree.CounterPrivate,
		Balance: ccpd.BalanceBlock,
		// Keep generation parallel at every size so balancing effects are
		// visible on the scaled-down databases.
		AdaptiveMinUnits: 1,
	}
	if comp {
		o.Balance = ccpd.BalanceBitonic
	}
	if tree {
		o.Hash = hashtree.HashBitonic
	}
	return o
}

// gaugeMissRate exports one placement-study row's cachesim miss rate to the
// runner's recorder (no-op when recording is off), so a metrics snapshot of
// a figure run carries the locality evidence alongside the printed tables.
func (r *Runner) gaugeMissRate(db string, procs int, sup float64, pr *core.PolicyResult) {
	if r.Obs == nil || pr == nil || pr.Totals.Accesses == 0 {
		return
	}
	series := fmt.Sprintf(`armine_cachesim_miss_rate{db=%q,procs="%d",support="%.1f%%",policy=%q}`,
		db, procs, sup*100, pr.Policy.String())
	r.Obs.SetGauge(series, float64(pr.Totals.Misses)/float64(pr.Totals.Accesses))
}

// Table1 prints the bitonic indirection vector of Section 4.1 (Table 1):
// ten labels hashed into H=3 cells.
func Table1(w io.Writer) error {
	t := &Table{Title: "Table 1: indirection vector (n=10 labels, H=3)", Header: []string{"Label"}}
	vals := []string{"Hash value"}
	v := partition.IndirectionVector(10, 3)
	for i, h := range v {
		t.Header = append(t.Header, fmt.Sprintf("%d", i))
		vals = append(vals, fmt.Sprintf("%d", h))
	}
	t.AddRow(vals...)
	t.Fprint(w)
	return nil
}

// Table2 prints the database properties table.
func (r *Runner) Table2(w io.Writer) error {
	t := &Table{
		Title:  fmt.Sprintf("Table 2: database properties (scale %.3g)", r.Scale),
		Header: []string{"Database", "T", "I", "D", "Total size"},
	}
	for _, p := range PaperDatasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		t.AddRow(name, fmt.Sprintf("%d", p.T), fmt.Sprintf("%d", p.I),
			fmt.Sprintf("%d", d.Len()),
			fmt.Sprintf("%.1fMB", float64(d.SizeBytes())/(1<<20)))
	}
	t.Fprint(w)
	return nil
}

// Figure4 prints the Section 3.1.2 partitioning example: per-processor
// workloads of the block, interleaved and bitonic schemes for n=10, P=3.
func Figure4(w io.Writer) error {
	t := &Table{
		Title:  "Figure 4: partitioning workloads (n=10 itemsets, P=3)",
		Header: []string{"Scheme", "W0", "W1", "W2", "Imbalance"},
	}
	for _, s := range []struct {
		name string
		a    *partition.Assignment
	}{
		{"block", partition.Block(10, 3)},
		{"interleaved", partition.Interleaved(10, 3)},
		{"bitonic", partition.Bitonic(10, 3)},
	} {
		wl := s.a.Workload()
		t.AddRow(s.name,
			fmt.Sprintf("%d", wl[0]), fmt.Sprintf("%d", wl[1]), fmt.Sprintf("%d", wl[2]),
			f2s(partition.Imbalance(wl)))
	}
	t.Fprint(w)
	return nil
}

// fig6Datasets are the six databases plotted in Fig. 6.
var fig6Datasets = []gen.Params{
	PaperDatasets[0], PaperDatasets[1], PaperDatasets[3],
	PaperDatasets[4], PaperDatasets[5], PaperDatasets[6],
}

// Figure6 prints intermediate hash tree sizes per iteration (0.1% support).
func (r *Runner) Figure6(w io.Writer) error {
	t := &Table{
		Title:  "Figure 6: intermediate hash tree size per iteration, bytes (0.1% support)",
		Header: []string{"Database", "k", "Candidates", "TreeBytes"},
	}
	for _, p := range fig6Datasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		res, err := apriori.Mine(d, apriori.Options{
			AbsSupport: absSupport(d.Len(), SupportLow), Hash: hashtree.HashBitonic, ShortCircuit: true,
		})
		if err != nil {
			return err
		}
		for _, it := range res.Iters {
			if it.K < 2 {
				continue
			}
			t.AddRow(name, fmt.Sprintf("%d", it.K),
				fmt.Sprintf("%d", it.Candidates),
				fmt.Sprintf("%d", it.TreeStats.Bytes))
		}
	}
	t.Fprint(w)
	return nil
}

// Figure7 prints frequent itemsets per iteration (0.5% support) for all
// eight databases.
func (r *Runner) Figure7(w io.Writer) error {
	t := &Table{
		Title:  "Figure 7: frequent itemsets per iteration (0.5% support)",
		Header: []string{"Database", "k", "Frequent"},
	}
	for _, p := range PaperDatasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		res, err := apriori.Mine(d, apriori.Options{
			AbsSupport: absSupport(d.Len(), SupportHigh), Hash: hashtree.HashBitonic, ShortCircuit: true,
		})
		if err != nil {
			return err
		}
		for _, it := range res.Iters {
			if it.Frequent == 0 {
				continue
			}
			t.AddRow(name, fmt.Sprintf("%d", it.K), fmt.Sprintf("%d", it.Frequent))
		}
	}
	t.Fprint(w)
	return nil
}

// fig8Datasets are the six databases of Fig. 8.
var fig8Datasets = []gen.Params{
	PaperDatasets[0], PaperDatasets[1], PaperDatasets[2],
	PaperDatasets[4], PaperDatasets[5], PaperDatasets[6],
}

// Figure8 prints the percentage improvement of computation balancing
// (COMP), hash tree balancing (TREE) and both (COMP-TREE) over the
// unoptimized run, by processor count (modelled parallel time).
func (r *Runner) Figure8(w io.Writer) error {
	t := &Table{
		Title:  "Figure 8: % improvement from computation/tree balancing (0.5% support)",
		Header: []string{"Database", "Procs", "COMP", "TREE", "COMP-TREE"},
	}
	for _, p := range fig8Datasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		for _, procs := range r.Procs {
			model := func(comp, tree bool) int64 {
				_, st, err2 := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), procs, comp, tree, false))
				if err2 != nil {
					err = err2
					return 0
				}
				return st.ModelTime()
			}
			base := model(false, false)
			comp := model(true, false)
			tree := model(false, true)
			both := model(true, true)
			if err != nil {
				return err
			}
			t.AddRow(name, fmt.Sprintf("%d", procs),
				f1(pct(base, comp)), f1(pct(base, tree)), f1(pct(base, both)))
		}
	}
	t.Fprint(w)
	return nil
}

// fig9Datasets are the four databases of Fig. 9.
var fig9Datasets = []gen.Params{
	PaperDatasets[0], PaperDatasets[5], PaperDatasets[2], PaperDatasets[3],
}

// Figure9 prints the percentage improvement of short-circuited subset
// checking over the unoptimized version.
func (r *Runner) Figure9(w io.Writer) error {
	t := &Table{
		Title:  "Figure 9: % improvement from short-circuited subset checking (0.5% support)",
		Header: []string{"Database", "Procs", "Improvement"},
	}
	for _, p := range fig9Datasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		for _, procs := range r.Procs {
			_, stBase, err := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), procs, true, true, false))
			if err != nil {
				return err
			}
			_, stSC, err := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), procs, true, true, true))
			if err != nil {
				return err
			}
			t.AddRow(name, fmt.Sprintf("%d", procs), f1(pct(stBase.ModelTime(), stSC.ModelTime())))
		}
	}
	t.Fprint(w)
	return nil
}

// Figure10 prints the per-iteration short-circuit improvement for
// T20.I6.D100K on one processor.
func (r *Runner) Figure10(w io.Writer) error {
	d, name, err := r.Dataset(PaperDatasets[3])
	if err != nil {
		return err
	}
	_, stBase, err := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), 1, true, true, false))
	if err != nil {
		return err
	}
	_, stSC, err := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), 1, true, true, true))
	if err != nil {
		return err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 10: %% improvement per iteration (%s, 1 proc, 0.5%% support)", name),
		Header: []string{"Iteration", "Improvement"},
	}
	n := len(stBase.PerIter)
	if len(stSC.PerIter) < n {
		n = len(stSC.PerIter)
	}
	for i := 1; i < n; i++ { // skip k=1 (no tree)
		base := maxWork(stBase.PerIter[i].CountWork)
		opt := maxWork(stSC.PerIter[i].CountWork)
		t.AddRow(fmt.Sprintf("%d", stBase.PerIter[i].K), f1(pct(base, opt)))
	}
	t.Fprint(w)
	return nil
}

func maxWork(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Figure11 prints CCPD speed-up per dataset and processor count, both pure
// compute (modelled) and with the paper's serial-I/O fractions applied
// (Amdahl), reproducing the reported ceilings.
func (r *Runner) Figure11(w io.Writer) error {
	t := &Table{
		Title:  "Figure 11: CCPD speed-up (0.5% support; modelled parallel time)",
		Header: []string{"Database", "Procs", "Speedup", "Speedup+IO"},
	}
	procs := append([]int{}, r.Procs...)
	if procs[len(procs)-1] < 12 {
		procs = append(procs, 12)
	}
	for _, p := range PaperDatasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		_, st1, err := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), 1, true, true, true))
		if err != nil {
			return err
		}
		t1 := st1.ModelTime()
		ioFrac := SerialIOFraction[name]
		for _, pr := range procs {
			if pr == 1 {
				t.AddRow(name, "1", "1.00", "1.00")
				continue
			}
			_, stP, err := ccpd.Mine(context.Background(), d, ccpdOpts(absSupport(d.Len(), SupportHigh), pr, true, true, true))
			if err != nil {
				return err
			}
			s := float64(t1) / float64(stP.ModelTime())
			// Amdahl with the serial disk share: the database is read from
			// one non-local disk, so I/O never parallelizes.
			sIO := 1 / (ioFrac + (1-ioFrac)/s)
			t.AddRow(name, fmt.Sprintf("%d", pr), f2s(s), f2s(sIO))
		}
	}
	t.Fprint(w)
	return nil
}

// fig12Datasets are the six databases of Fig. 12.
var fig12Datasets = fig6Datasets

// Figure12 prints normalized modelled execution times of the
// single-processor placement policies (CCPD, SPP, LPP, GPP) at 0.5% and
// 0.1% support.
func (r *Runner) Figure12(w io.Writer) error {
	pols := []mem.Policy{mem.PolicyCCPD, mem.PolicySPP, mem.PolicyLPP, mem.PolicyGPP}
	t := &Table{
		Title:  "Figure 12: memory placement, one processor (normalized time)",
		Header: []string{"Database", "Support", "CCPD", "SPP", "LPP", "GPP"},
	}
	for _, p := range fig12Datasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		for _, sup := range []float64{SupportHigh, SupportLow} {
			res, err := core.RunPlacementStudy(d, core.StudyOptions{
				Mining:     apriori.Options{AbsSupport: absSupport(d.Len(), sup), Hash: hashtree.HashBitonic, ShortCircuit: true},
				Procs:      1,
				Policies:   pols,
				MaxTraceTx: r.MaxTraceTx,
			})
			if err != nil {
				return err
			}
			row := []string{name, fmt.Sprintf("%.1f%%", sup*100)}
			for _, pol := range pols {
				row = append(row, f2s(res.ByPolicy(pol).Normalized))
				r.gaugeMissRate(name, 1, sup, res.ByPolicy(pol))
			}
			t.AddRow(row...)
		}
	}
	t.Fprint(w)
	return nil
}

// fig13Datasets are the five databases of Fig. 13.
var fig13Datasets = []gen.Params{
	PaperDatasets[0], PaperDatasets[1], PaperDatasets[3],
	PaperDatasets[5], PaperDatasets[7],
}

// Figure13 prints normalized modelled execution times of all placement
// policies on four and eight processors at 0.5% and 0.1% support.
func (r *Runner) Figure13(w io.Writer) error {
	t := &Table{
		Title: "Figure 13: memory placement, multiple processors (normalized time)",
		Header: []string{"Database", "Procs", "Support",
			"CCPD", "SPP", "L-SPP", "L-LPP", "GPP", "L-GPP", "LCA-GPP"},
	}
	for _, p := range fig13Datasets {
		d, name, err := r.Dataset(p)
		if err != nil {
			return err
		}
		for _, procs := range []int{4, 8} {
			for _, sup := range []float64{SupportHigh, SupportLow} {
				res, err := core.RunPlacementStudy(d, core.StudyOptions{
					Mining:     apriori.Options{AbsSupport: absSupport(d.Len(), sup), Hash: hashtree.HashBitonic, ShortCircuit: true},
					Procs:      procs,
					Policies:   mem.AllPolicies,
					MaxTraceTx: r.MaxTraceTx,
				})
				if err != nil {
					return err
				}
				row := []string{name, fmt.Sprintf("%d", procs), fmt.Sprintf("%.1f%%", sup*100)}
				for _, pol := range mem.AllPolicies {
					row = append(row, f2s(res.ByPolicy(pol).Normalized))
					r.gaugeMissRate(name, procs, sup, res.ByPolicy(pol))
				}
				t.AddRow(row...)
			}
		}
	}
	t.Fprint(w)
	return nil
}
