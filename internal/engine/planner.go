// The cost-based planner: pick engine + DB partition mode + chunk size from
// database statistics (density, skew, size — the same axes internal/gen
// parameterizes its workloads with), the GreedySchedule work model, and the
// available memory budget. It replaces the two hand-rolled "-algo auto"
// selection sites that used to live in cmd/apriori — one of which
// characterized only segment 0 of a segmented store and ignored -mem-budget
// entirely, happily selecting the vertical engine when its bitmap arena
// could never fit the budget.
package engine

import (
	"fmt"

	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/sched"
	"repro/internal/vbit"
)

// DBInfo is everything the planner knows about a database: the O(1)
// aggregate statistics (the same shape internal/gen parameterizes its
// workloads with), a transaction-length skew measurement and, for segmented
// stores, the store geometry the out-of-core cost terms need.
type DBInfo struct {
	// Transactions is the row count D, NumItems the item universe N, AvgLen
	// the mean transaction length T, and Density = T/N the probability a
	// random item appears in a random row.
	Transactions int
	NumItems     int
	AvgLen       float64
	Density      float64
	// TotalItems is the total item-occurrence count (= Transactions·AvgLen);
	// it is the unit of horizontal counting work.
	TotalItems int64
	// TailMass is the fraction of all item occurrences carried by
	// transactions longer than 2× the mean — near zero for Poisson-shaped
	// uniform workloads (~1%), large for planted heavy tails (~30% at the
	// generator's SkewFrac=0.05, SkewMult=8).
	TailMass float64
	// TailTx is the fraction of transactions longer than 2× the mean.
	TailTx float64
	// Segmented geometry (zero for in-RAM databases).
	Segmented       bool
	NumSegments     int
	MaxSegmentTx    int
	MaxSegmentBytes int64
}

// Characterize measures an in-memory database: the aggregate statistics are
// O(1) reads of stored totals; the skew terms take one pass over the
// transaction-length offsets (no item data is touched).
func Characterize(d *db.Database) DBInfo {
	info := DBInfo{
		Transactions: d.Len(), NumItems: d.NumItems(), AvgLen: d.AvgLen(),
		TotalItems: d.TotalItems(),
	}
	if info.NumItems > 0 {
		info.Density = info.AvgLen / float64(info.NumItems)
	}
	cut := 2 * info.AvgLen
	var tailItems int64
	tailTx := 0
	for i := 0; i < d.Len(); i++ {
		if n := len(d.Items(i)); float64(n) > cut {
			tailItems += int64(n)
			tailTx++
		}
	}
	if info.TotalItems > 0 {
		info.TailMass = float64(tailItems) / float64(info.TotalItems)
	}
	if d.Len() > 0 {
		info.TailTx = float64(tailTx) / float64(d.Len())
	}
	return info
}

// CharacterizeReader measures a segmented store. Unlike the old segment-0
// sampling, the aggregate statistics (transaction count, universe, average
// length, density) come from the store header and are exact for the whole
// store. The skew terms are measured over the first and last segments: the
// generator plants its heavy tail at the end of the transaction stream, so
// sampling only the head (the old bug) reads a skewed store as uniform.
func CharacterizeReader(r *seg.Reader) (DBInfo, error) {
	info := DBInfo{
		Segmented:       true,
		NumSegments:     r.NumSegments(),
		MaxSegmentBytes: r.MaxSegmentBytes(),
		TotalItems:      r.TotalItems(),
	}
	info.Transactions = int(r.NumTx()) //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
	info.NumItems = r.NumItems()
	if n := r.NumTx(); n > 0 {
		info.AvgLen = float64(r.TotalItems()) / float64(n)
	}
	if info.NumItems > 0 {
		info.Density = info.AvgLen / float64(info.NumItems)
	}
	for i := 0; i < r.NumSegments(); i++ {
		if tx := int(r.Segment(i).NumTx); tx > info.MaxSegmentTx {
			info.MaxSegmentTx = tx
		}
	}

	samples := []int{0}
	if last := r.NumSegments() - 1; last > 0 {
		samples = append(samples, last)
	}
	cut := 2 * info.AvgLen
	var tailItems, sampleItems int64
	tailTx, sampleTx := 0, 0
	var buf seg.Buffer
	for _, si := range samples {
		sd, err := r.LoadSegment(si, &buf)
		if err != nil {
			return info, err
		}
		sampleTx += sd.Len()
		sampleItems += sd.TotalItems()
		for i := 0; i < sd.Len(); i++ {
			if n := len(sd.Items(i)); float64(n) > cut {
				tailItems += int64(n)
				tailTx++
			}
		}
	}
	if sampleItems > 0 {
		info.TailMass = float64(tailItems) / float64(sampleItems)
	}
	if sampleTx > 0 {
		info.TailTx = float64(tailTx) / float64(sampleTx)
	}
	return info, nil
}

// Estimate is one candidate engine's projected cost and memory footprint —
// recorded in the Plan so a selection is auditable (and pinnable in tests)
// rather than an opaque verdict.
type Estimate struct {
	Engine string
	// Cost is the modelled counting work in item-touch units, normalized so
	// the two engines' models are comparable (see costs below).
	Cost int64
	// ArenaBytes is the projected peak resident footprint of the engine's
	// counting structures (the vertical engine's bitmap/tidlist arena; the
	// horizontal engine's streaming residency).
	ArenaBytes int64
	// Feasible is false when ArenaBytes exceeds the memory budget.
	Feasible bool
	Note     string
}

// Plan is the planner's decision: which engine, how to partition the
// database for counting, and at what chunk granularity, with the estimates
// that justified it.
type Plan struct {
	Engine    string
	Segmented bool
	DBPart    ccpd.DBPartition
	ChunkSize int
	// MemBudget echoes the budget the decision was made under, so downstream
	// dispatch (and the golden tests) see it.
	MemBudget int64
	// BlockModel/DynamicModel are the GreedySchedule-modelled parallel
	// counting times (max per-processor load) of the static block partition
	// and the dynamic chunk-claiming partition over the synthetic chunk-work
	// vector — the numbers behind the DBPart choice.
	BlockModel   int64
	DynamicModel int64
	Estimates    []Estimate
	Reason       string
}

// String renders the one-line decision summary the CLI prints.
func (p Plan) String() string {
	return fmt.Sprintf("engine=%s dbpart=%s chunk=%d (%s)", p.Engine, p.DBPart, p.ChunkSize, p.Reason)
}

// CrossoverDensity is the density at which the vertical engine starts
// beating the horizontal hash-tree engine. It comes from the two cost
// models: a vertical pair probe costs about D/64 word ops when columns are
// bitmaps, or ~2·density·D tid ops as tidlists, while the hash tree pays per
// transaction-row regardless of the probed pair's density — its per-pair
// share only amortizes when rows are long. Below about one occurrence per
// 128 universe items the vertical columns are so sparse that even the
// tidlist path degenerates to pointer chasing over near-empty lists while
// the hash tree still streams the whole database once per iteration, and
// the hash tree wins; above it the vertical engine's popcount kernels win
// and keep winning (the dense BENCH_counting rows). The density-sweep
// experiment (cmd/experiments -sweep density) reproduces this crossover from
// the deterministic work models; adjust the constant if the sweep moves.
const CrossoverDensity = 1.0 / 128

// tailMassThreshold is the TailMass above which the static block partition
// is considered imbalanced and the dynamic modes compete.
const tailMassThreshold = 0.08

// Planner holds the selection policy knobs; construct with struct literals.
type Planner struct {
	// Procs is the worker count the partition model schedules for (default 4).
	Procs int
	// MemBudget caps resident bytes; 0 means unbudgeted (in-RAM runs) or
	// double-buffered (segmented runs), and disables the feasibility check
	// for in-RAM databases.
	MemBudget int64
}

// modelChunks is how many synthetic chunks the partition model schedules:
// enough resolution that a 5% heavy tail occupies whole chunks, small enough
// that planning stays trivially cheap.
const modelChunks = 64

// VBitArenaBytes projects the vertical engine's column-arena footprint from
// aggregate statistics under the uniform-density assumption the layout's
// own per-item rule refines at runtime: when the density clears the bitmap
// cutoff every column materializes as a ⌈D/64⌉-word bitmap, otherwise every
// column is a 4-byte-per-tid tidlist. txCount is the transaction span one
// layout covers — the whole database in RAM, one segment on the level-wise
// out-of-core path.
func VBitArenaBytes(info DBInfo, txCount int) int64 {
	if txCount <= 0 {
		return 0
	}
	scale := float64(txCount) / float64(max(1, info.Transactions))
	if info.Density >= vbit.DefaultDensityCutoff {
		words := int64(txCount+63) / 64
		return int64(info.NumItems) * words * 8
	}
	return int64(float64(info.TotalItems)*scale) * 4
}

// Plan picks the engine, partition mode and chunk size for a database.
//
// The engine choice compares two counting-cost models in item-touch units.
// The horizontal hash-tree engine streams every item occurrence once per
// iteration: cost = TotalItems. The vertical engine's per-pair probes touch
// bitmap words (D/64 per probe) or near-empty tidlists; normalizing its
// model against the horizontal one at the calibrated crossover density gives
// cost = TotalItems · (crossover/density) — equal at the crossover, cheaper
// for vbit above it, and degenerating (pointer chasing over near-empty
// columns) below it. This turns the density decision into comparable
// numbers, and lets the memory budget veto a winner: when the vertical arena
// projection exceeds the budget the plan falls back to the (segmented)
// streaming CCPD engine, which counts through a bounded hash tree regardless
// of store size.
//
// The partition choice schedules a synthetic chunk-work vector — uniform
// work with the measured tail mass concentrated in the trailing TailTx
// chunks, mirroring where the generator plants its heavy tail — under the
// static block split and under sched.GreedySchedule (the deterministic model
// of the dynamic chunk-claiming modes). Stealing is selected when the
// dynamic model beats block by more than 5%; otherwise block's zero
// coordination overhead wins.
func (pl Planner) Plan(info DBInfo) Plan {
	if pl.Procs <= 0 {
		pl.Procs = 4
	}
	p := Plan{Segmented: info.Segmented, DBPart: ccpd.PartitionBlock, ChunkSize: 256}

	// Engine choice: ccpd vs vbit cost models plus the budget veto.
	hcost := info.TotalItems
	ccpdEst := Estimate{
		Engine: "ccpd", Cost: hcost, Feasible: true,
		ArenaBytes: 2 * info.MaxSegmentBytes,
		Note:       "streams the store once per iteration through a bounded hash tree",
	}
	vcost := int64(0)
	feasibleV := info.Transactions > 0 && info.NumItems > 0 && info.Density > 0
	if feasibleV {
		vcost = int64(float64(hcost) * (CrossoverDensity / info.Density))
	}
	vtx := info.Transactions
	vnote := "materializes every column in RAM"
	if info.Segmented {
		vtx = info.MaxSegmentTx
		vnote = "materializes one segment's columns per pass (level-wise)"
	}
	vbitEst := Estimate{
		Engine: "vbit", Cost: vcost,
		ArenaBytes: VBitArenaBytes(info, vtx) + info.MaxSegmentBytes,
		Feasible:   feasibleV, Note: vnote,
	}
	if pl.MemBudget > 0 && vbitEst.ArenaBytes > pl.MemBudget {
		vbitEst.Feasible = false
		vbitEst.Note = fmt.Sprintf("arena projection %d B exceeds budget %d B", vbitEst.ArenaBytes, pl.MemBudget)
	}
	p.Estimates = []Estimate{ccpdEst, vbitEst}

	switch {
	case !vbitEst.Feasible:
		p.Engine = "ccpd"
		p.Reason = "vbit infeasible: " + vbitEst.Note
	case vbitEst.Cost < ccpdEst.Cost:
		p.Engine = "vbit"
		p.Reason = fmt.Sprintf("density %.4f above crossover %.4f", info.Density, CrossoverDensity)
	default:
		p.Engine = "ccpd"
		p.Reason = fmt.Sprintf("density %.4f below crossover %.4f", info.Density, CrossoverDensity)
	}
	p.MemBudget = pl.MemBudget

	// Partition + chunk choice, from the GreedySchedule model of the
	// measured tail. Only the hash-tree engine family consumes DBPart; the
	// vertical engines reuse ChunkSize as their poll stride.
	work := syntheticChunkWork(info)
	p.BlockModel = blockModel(work, pl.Procs)
	p.DynamicModel = maxLoad(sched.GreedySchedule(work, pl.Procs))
	if info.TailMass >= tailMassThreshold &&
		float64(p.DynamicModel) < 0.95*float64(p.BlockModel) {
		p.DBPart = ccpd.PartitionStealing
		p.ChunkSize = clampInt(info.Transactions/(pl.Procs*16), 16, 256)
		p.Reason += fmt.Sprintf("; tail mass %.2f -> stealing (model %d vs block %d)",
			info.TailMass, p.DynamicModel, p.BlockModel)
	}
	return p
}

// syntheticChunkWork spreads the database's item occurrences over
// modelChunks chunks: uniform base load, with the measured tail mass
// concentrated in the trailing TailTx-fraction chunks (where the generator
// plants its heavy transactions).
func syntheticChunkWork(info DBInfo) []int64 {
	work := make([]int64, modelChunks)
	if info.TotalItems <= 0 {
		return work
	}
	tailChunks := int(info.TailTx*modelChunks + 0.5)
	if info.TailMass > 0 && tailChunks == 0 {
		tailChunks = 1
	}
	if tailChunks > modelChunks {
		tailChunks = modelChunks
	}
	base := float64(info.TotalItems) * (1 - info.TailMass) / float64(modelChunks-tailChunks)
	for i := range work {
		work[i] = int64(base)
	}
	if tailChunks > 0 {
		tail := float64(info.TotalItems) * info.TailMass / float64(tailChunks)
		for i := modelChunks - tailChunks; i < modelChunks; i++ {
			work[i] = int64(base + tail)
		}
	}
	return work
}

// blockModel is the max per-processor load of a contiguous equal-chunk split
// — the static block partition over the synthetic work vector.
func blockModel(work []int64, procs int) int64 {
	var worst int64
	for p := 0; p < procs; p++ {
		lo, hi := p*len(work)/procs, (p+1)*len(work)/procs
		var sum int64
		for _, w := range work[lo:hi] {
			sum += w
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}

func maxLoad(loads []int64) int64 {
	var m int64
	for _, v := range loads {
		if v > m {
			m = v
		}
	}
	return m
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
