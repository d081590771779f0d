package engine

import (
	"path/filepath"
	"testing"

	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/gen"
	"repro/internal/itemset"
)

// workloadShapes are the internal/gen reference shapes the planner goldens
// pin: one per axis the cost model decides on (density above/below the
// crossover, planted skew, and — separately below — segmented geometry).
var workloadShapes = map[string]gen.Params{
	// density ≈ 0.2: far above the 1/128 crossover, every column a bitmap.
	"dense": {N: 60, L: 30, T: 12, I: 4, D: 2000, Seed: 1},
	// density ≈ 0.003: below the crossover, vertical columns near-empty.
	"sparse": {N: 3200, L: 1600, T: 10, I: 4, D: 2000, Seed: 1},
	// the paper-default shape with the generator's heavy tail planted:
	// 5% of transactions draw their size from Poisson(8·T).
	"skewed": {T: 10, I: 4, D: 2000, Seed: 1, SkewFrac: 0.05, SkewMult: 8},
	// skew below the crossover: the one shape that wants ccpd AND stealing.
	"sparse-skewed": {N: 3200, L: 1600, T: 10, I: 4, D: 2000, Seed: 1, SkewFrac: 0.05, SkewMult: 8},
}

// TestCharacterize pins the O(1) aggregate statistics: D, N, mean length
// and density T/N.
func TestCharacterize(t *testing.T) {
	d := db.New(100)
	for i := 0; i < 50; i++ {
		d.Append(int64(i), itemset.New(0, 1, 2, 3, 4))
	}
	s := Characterize(d)
	if s.Transactions != 50 || s.NumItems != 100 {
		t.Errorf("D/N = %d/%d, want 50/100", s.Transactions, s.NumItems)
	}
	if s.AvgLen != 5 {
		t.Errorf("AvgLen = %v, want 5", s.AvgLen)
	}
	if s.Density != 0.05 {
		t.Errorf("Density = %v, want 0.05", s.Density)
	}
	if s.TotalItems != 250 || s.TailMass != 0 {
		t.Errorf("TotalItems/TailMass = %d/%v, want 250/0", s.TotalItems, s.TailMass)
	}
}

// plannedChoice is the pinned decision for one workload shape.
type plannedChoice struct {
	engine string
	dbpart ccpd.DBPartition
}

// TestPlannerGoldens pins the planner's decision for each workload shape and
// checks the decision is justified by the recorded estimates — the chosen
// engine must be the feasible one with the lower modelled cost, and a
// stealing partition must be backed by the GreedySchedule model beating the
// block model.
func TestPlannerGoldens(t *testing.T) {
	want := map[string]plannedChoice{
		"dense":         {engine: "vbit", dbpart: ccpd.PartitionBlock},
		"sparse":        {engine: "ccpd", dbpart: ccpd.PartitionBlock},
		"skewed":        {engine: "vbit", dbpart: ccpd.PartitionStealing},
		"sparse-skewed": {engine: "ccpd", dbpart: ccpd.PartitionStealing},
	}
	for name, params := range workloadShapes {
		d, err := gen.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		info := Characterize(d)
		plan := Planner{Procs: 4}.Plan(info)
		w := want[name]
		if plan.Engine != w.engine {
			t.Errorf("%s: planned engine %s, want %s (info %+v, reason %q)",
				name, plan.Engine, w.engine, info, plan.Reason)
		}
		if plan.DBPart != w.dbpart {
			t.Errorf("%s: planned dbpart %s, want %s (tail mass %.3f, models block=%d dynamic=%d)",
				name, plan.DBPart, w.dbpart, info.TailMass, plan.BlockModel, plan.DynamicModel)
		}
		assertJustified(t, name, plan)
	}
}

// assertJustified checks a plan's internal consistency against its own
// recorded estimates.
func assertJustified(t *testing.T, label string, plan Plan) {
	t.Helper()
	ests := map[string]Estimate{}
	for _, e := range plan.Estimates {
		ests[e.Engine] = e
	}
	chosen, ok := ests[plan.Engine]
	if !ok {
		t.Errorf("%s: chosen engine %s has no recorded estimate", label, plan.Engine)
		return
	}
	if !chosen.Feasible {
		t.Errorf("%s: chosen engine %s marked infeasible: %s", label, plan.Engine, chosen.Note)
	}
	for _, e := range plan.Estimates {
		if e.Engine != plan.Engine && e.Feasible && e.Cost < chosen.Cost {
			t.Errorf("%s: %s (cost %d) was feasible and cheaper than chosen %s (cost %d)",
				label, e.Engine, e.Cost, plan.Engine, chosen.Cost)
		}
	}
	if plan.DBPart == ccpd.PartitionStealing && plan.DynamicModel >= plan.BlockModel {
		t.Errorf("%s: stealing chosen but dynamic model %d does not beat block %d",
			label, plan.DynamicModel, plan.BlockModel)
	}
}

// TestPlannerSegmented pins the segmented decisions: with exact whole-store
// statistics a dense store plans vbit when the budget fits its per-segment
// arena, and any store falls back to the streaming ccpd engine when the
// budget cannot hold the vertical arena. The old selector read only segment
// 0 and never looked at the budget at all.
func TestPlannerSegmented(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p gen.Params, segTx int) *seg.Reader {
		t.Helper()
		d, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".arseg")
		if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: segTx}); err != nil {
			t.Fatal(err)
		}
		r, err := seg.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}

	dense := write("dense", workloadShapes["dense"], 500)
	info, err := CharacterizeReader(dense)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Segmented || info.NumSegments != 4 || info.Transactions != 2000 {
		t.Fatalf("dense store characterization off: %+v", info)
	}
	if plan := (Planner{Procs: 4}).Plan(info); plan.Engine != "vbit" {
		t.Errorf("dense segmented, no budget: engine %s, want vbit (%s)", plan.Engine, plan.Reason)
	}
	// A generous budget still fits the per-segment arena: stays vbit.
	if plan := (Planner{Procs: 4, MemBudget: 64 << 20}).Plan(info); plan.Engine != "vbit" {
		t.Errorf("dense segmented, 64M budget: engine %s, want vbit (%s)", plan.Engine, plan.Reason)
	}
	// A tiny budget can never hold the vertical arena: must fall back to the
	// streaming ccpd engine, never in-RAM vbit.
	tiny := Planner{Procs: 4, MemBudget: 4 << 10}.Plan(info)
	if tiny.Engine != "ccpd" {
		t.Errorf("dense segmented, 4K budget: engine %s, want ccpd fallback (%s)", tiny.Engine, tiny.Reason)
	}
	for _, e := range tiny.Estimates {
		if e.Engine == "vbit" && e.Feasible {
			t.Errorf("4K budget: vbit estimate still feasible (arena %d B)", e.ArenaBytes)
		}
	}
}

// TestPlannerSkewSampling guards the segment-0 half of the old bug: the
// generator plants its heavy tail at the END of the transaction stream, so a
// head-only sample reads a skewed store as uniform. CharacterizeReader
// samples the first and last segments and must see the tail.
func TestPlannerSkewSampling(t *testing.T) {
	d, err := gen.Generate(workloadShapes["skewed"])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skew.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 500}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info, err := CharacterizeReader(r)
	if err != nil {
		t.Fatal(err)
	}
	inRAM := Characterize(d)
	if info.TailMass < 0.5*inRAM.TailMass {
		t.Errorf("segmented skew sample missed the tail: TailMass %.3f vs in-RAM %.3f",
			info.TailMass, inRAM.TailMass)
	}
	if plan := (Planner{Procs: 4}).Plan(info); plan.DBPart != ccpd.PartitionStealing {
		t.Errorf("skewed segmented store: dbpart %s, want stealing (tail mass %.3f)",
			plan.DBPart, info.TailMass)
	}
	// Exactness of the O(1) aggregates: header-derived density must match
	// the in-RAM characterization (same data, same totals).
	if info.Density != inRAM.Density || info.Transactions != inRAM.Transactions {
		t.Errorf("segmented aggregates drifted: density %g/%g, tx %d/%d",
			info.Density, inRAM.Density, info.Transactions, inRAM.Transactions)
	}
}

// TestVBitArenaBytes pins the arena projection's two regimes against the
// layout's real materialization rule.
func TestVBitArenaBytes(t *testing.T) {
	dense := DBInfo{Transactions: 6400, NumItems: 100, AvgLen: 12, Density: 0.12, TotalItems: 6400 * 12}
	// 6400 tx → 100 words of 8 bytes per bitmap, 100 items.
	if got, want := VBitArenaBytes(dense, 6400), int64(100*100*8); got != want {
		t.Errorf("dense arena = %d, want %d", got, want)
	}
	sparse := DBInfo{Transactions: 6400, NumItems: 100000, AvgLen: 10, Density: 0.0001, TotalItems: 64000}
	if got, want := VBitArenaBytes(sparse, 6400), int64(64000*4); got != want {
		t.Errorf("sparse arena = %d, want %d", got, want)
	}
	// Segment-scaled: a quarter of the transactions projects a quarter of
	// the tidlist arena.
	if got, want := VBitArenaBytes(sparse, 1600), int64(16000*4); got != want {
		t.Errorf("scaled sparse arena = %d, want %d", got, want)
	}
}
