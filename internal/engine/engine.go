// Package engine unifies the repo's counting engines behind one Miner
// interface and a cost-based Planner. The cross-algorithm equivalence suite
// proves the engines agree on every input; this package exploits that: the
// CLI, the experiment harness, the bench runner — and the server and sharded
// runner the roadmap plans — dispatch through a Miner looked up by name
// instead of special-casing each engine, and "-algo auto" becomes one
// planner call instead of hand-rolled selection logic per call site.
//
// The interface is deliberately the intersection the callers need, not the
// union of everything each engine can do: one context-taking Mine returning
// the shared apriori.Result plus normalized Stats, with the optional surfaces
// (segmented out-of-core mining, checkpoint resume) expressed as narrowing
// interfaces (SegmentedMiner, Resumer) so a caller can discover support
// without a type switch per engine.
package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/eclat"
	"repro/internal/hashtree"
	"repro/internal/obs"
	"repro/internal/vbit"
)

// Caps declares the capability flags a caller branches on instead of engine
// names. The out-of-core and resume surfaces are discovered through
// AsSegmented and AsResumer.
type Caps struct {
	// Obs: the engine records its phase spans and metrics into Spec.Obs.
	Obs bool
}

// Spec is the engine-independent description of one mining run. Every field
// an engine does not understand is ignored; the planner and the CLI fill it
// once and hand it to whichever Miner was selected.
type Spec struct {
	// Mining carries the shared level-wise knobs: support threshold
	// (fractional or absolute — resolved through apriori.CeilSupport),
	// MaxK, hash-tree shape, candidate batching.
	Mining apriori.Options
	// Procs is the worker count for parallel engines.
	Procs int
	// Counter, Balance, DBPart, ChunkSize are the CCPD-family knobs; the
	// vertical engines reuse ChunkSize as their cancellation-poll stride.
	Counter   hashtree.CounterMode
	Balance   ccpd.BalanceScheme
	DBPart    ccpd.DBPartition
	ChunkSize int
	// Obs wires the observability recorder through engines that support it.
	Obs *obs.Recorder
	// Checkpoint enables per-iteration snapshots on engines that implement
	// Resumer.
	Checkpoint string
	// MemBudget caps resident decoded-segment bytes on the segmented path
	// (0 = double-buffered prefetch).
	MemBudget int64
}

// ccpdOptions lowers a Spec onto the CCPD option struct. Every engine
// caller counts iteration 2 with the triangular-array pair pass; the paper's
// k=2 hash tree stays the ccpd package's zero value, used by the figure
// regeneration and the pinned work model.
func (s Spec) ccpdOptions() ccpd.Options {
	return ccpd.Options{
		Options: s.Mining,
		Procs:   s.Procs, Counter: s.Counter, Balance: s.Balance,
		DBPart: s.DBPart, ChunkSize: s.ChunkSize,
		Obs: s.Obs, Checkpoint: s.Checkpoint,
		PairPass: true,
	}
}

// vbitOptions lowers a Spec onto the vertical-bitmap option struct.
func (s Spec) vbitOptions() vbit.Options {
	return vbit.Options{
		MinSupport: s.Mining.MinSupport, AbsSupport: s.Mining.AbsSupport,
		MaxK: s.Mining.MaxK, Procs: s.Procs, ChunkStride: s.ChunkSize,
		Obs: s.Obs,
	}
}

// Stats is the normalized run summary every Miner returns: total and
// counting-phase wall clock, plus the engine's raw stats for callers that
// want the full detail (the CLI's -v output, the bench harness).
type Stats struct {
	EngineName string
	Total      time.Duration
	Count      time.Duration

	// Exactly one of the following is non-nil for engines that expose a
	// detailed model; all may be nil (seq, eclat).
	CCPD          *ccpd.Stats
	VBit          *vbit.Stats
	VBitSegmented *vbit.SegmentedStats
	// Pipeline is the out-of-core prefetch accounting when the run was
	// segmented (also reachable through CCPD/VBitSegmented).
	Pipeline *seg.PipelineStats
}

// Miner is the unified engine interface. Implementations are stateless
// values; one Miner serves any number of concurrent runs.
type Miner interface {
	// Name is the registry key and the CLI's -algo spelling.
	Name() string
	Caps() Caps
	// Mine runs on an in-memory database under ctx. Every engine except seq
	// observes the context cooperatively and returns the partial result with
	// a *robust.CanceledError; seq runs to completion.
	Mine(ctx context.Context, d *db.Database, s Spec) (*apriori.Result, *Stats, error)
}

// SegmentedMiner is implemented by engines with an out-of-core path over a
// segmented columnar store.
type SegmentedMiner interface {
	Miner
	MineSegmented(ctx context.Context, r *seg.Reader, s Spec) (*apriori.Result, *Stats, error)
}

// Resumer is implemented by engines that can continue a checkpointed run.
type Resumer interface {
	Miner
	Resume(ctx context.Context, checkpointPath string, d *db.Database, s Spec) (*apriori.Result, *Stats, error)
}

// --- Registry ---

var registry = map[string]Miner{}

// register panics on duplicates: the registry is assembled in init and a
// collision is a programming error.
func register(m Miner) {
	if _, dup := registry[m.Name()]; dup {
		panic("engine: duplicate registration of " + m.Name())
	}
	registry[m.Name()] = m
}

// Lookup returns the Miner registered under name.
func Lookup(name string) (Miner, bool) {
	m, ok := registry[name]
	return m, ok
}

// Names lists the registered engines, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AsSegmented narrows a Miner to its out-of-core surface.
func AsSegmented(m Miner) (SegmentedMiner, bool) {
	sm, ok := m.(SegmentedMiner)
	return sm, ok
}

// AsResumer narrows a Miner to its checkpoint-resume surface.
func AsResumer(m Miner) (Resumer, bool) {
	r, ok := m.(Resumer)
	return r, ok
}

func init() {
	register(seqMiner{})
	register(ccpdMiner{})
	register(pccdMiner{})
	register(eclatMiner{})
	register(vbitMiner{})
}

// --- Adapters ---

// seqMiner is sequential Apriori (internal/apriori).
type seqMiner struct{}

func (seqMiner) Name() string { return "seq" }
func (seqMiner) Caps() Caps   { return Caps{} }
func (seqMiner) Mine(_ context.Context, d *db.Database, s Spec) (*apriori.Result, *Stats, error) {
	t0 := time.Now()
	res, err := apriori.Mine(d, s.Mining)
	if err != nil {
		return nil, nil, err
	}
	return res, &Stats{EngineName: "seq", Total: time.Since(t0)}, nil
}

// ccpdMiner is the Common Candidate Partitioned Database engine, with
// checkpoint/resume and the segmented out-of-core streaming path.
type ccpdMiner struct{}

func (ccpdMiner) Name() string { return "ccpd" }
func (ccpdMiner) Caps() Caps   { return Caps{Obs: true} }
func (ccpdMiner) Mine(ctx context.Context, d *db.Database, s Spec) (*apriori.Result, *Stats, error) {
	res, st, err := ccpd.Mine(ctx, d, s.ccpdOptions())
	return res, ccpdStats("ccpd", st), err
}
func (ccpdMiner) MineSegmented(ctx context.Context, r *seg.Reader, s Spec) (*apriori.Result, *Stats, error) {
	res, st, err := ccpd.MineSegmented(ctx, r, ccpd.SegmentedOptions{
		Options: s.ccpdOptions(), MemBudget: s.MemBudget,
	})
	return res, ccpdStats("ccpd", st), err
}
func (ccpdMiner) Resume(ctx context.Context, path string, d *db.Database, s Spec) (*apriori.Result, *Stats, error) {
	res, st, err := ccpd.Resume(ctx, path, d, s.ccpdOptions())
	return res, ccpdStats("ccpd", st), err
}

func ccpdStats(name string, st *ccpd.Stats) *Stats {
	if st == nil {
		return nil
	}
	return &Stats{
		EngineName: name, Total: st.Total, Count: st.TotalCount(),
		CCPD: st, Pipeline: st.OutOfCore,
	}
}

// pccdMiner is the Partitioned Candidate Common Database variant.
type pccdMiner struct{}

func (pccdMiner) Name() string { return "pccd" }
func (pccdMiner) Caps() Caps   { return Caps{Obs: true} }
func (pccdMiner) Mine(ctx context.Context, d *db.Database, s Spec) (*apriori.Result, *Stats, error) {
	res, st, err := ccpd.MinePCCD(ctx, d, s.ccpdOptions())
	return res, ccpdStats("pccd", st), err
}

// eclatMiner is the tidlist-intersection vertical engine.
type eclatMiner struct{}

func (eclatMiner) Name() string { return "eclat" }
func (eclatMiner) Caps() Caps   { return Caps{} }
func (eclatMiner) Mine(ctx context.Context, d *db.Database, s Spec) (*apriori.Result, *Stats, error) {
	t0 := time.Now()
	res, err := eclat.Mine(ctx, d, eclat.Options{
		MinSupport: s.Mining.MinSupport, AbsSupport: s.Mining.AbsSupport,
		MaxK: s.Mining.MaxK, Procs: s.Procs,
	})
	if err != nil {
		return res, nil, err
	}
	return res, &Stats{EngineName: "eclat", Total: time.Since(t0)}, nil
}

// vbitMiner is the word-parallel TID-bitmap dEclat engine, with the
// level-wise segmented out-of-core path.
type vbitMiner struct{}

func (vbitMiner) Name() string { return "vbit" }
func (vbitMiner) Caps() Caps   { return Caps{Obs: true} }
func (vbitMiner) Mine(ctx context.Context, d *db.Database, s Spec) (*apriori.Result, *Stats, error) {
	res, st, err := vbit.Mine(ctx, d, s.vbitOptions())
	if st == nil {
		return res, nil, err
	}
	return res, &Stats{EngineName: "vbit", Total: st.Total, Count: st.Count, VBit: st}, err
}
func (vbitMiner) MineSegmented(ctx context.Context, r *seg.Reader, s Spec) (*apriori.Result, *Stats, error) {
	res, st, err := vbit.MineSegmented(ctx, r, vbit.SegmentedOptions{
		Options: s.vbitOptions(), MemBudget: s.MemBudget,
	})
	if st == nil {
		return res, nil, err
	}
	return res, &Stats{
		EngineName: "vbit", Total: st.Total,
		VBitSegmented: st, Pipeline: &st.Pipeline,
	}, err
}

// Dispatch looks up name and runs the spec against the given source: an
// in-memory database, or a segmented reader for engines with an out-of-core
// path. Exactly one of d and r must be non-nil. It is the single entry point
// the CLI and harnesses use in place of per-engine switch statements.
func Dispatch(ctx context.Context, name string, d *db.Database, r *seg.Reader, s Spec) (*apriori.Result, *Stats, error) {
	m, ok := Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
	}
	if r != nil {
		sm, ok := AsSegmented(m)
		if !ok {
			return nil, nil, fmt.Errorf("engine: %s has no out-of-core path; segmented stores mine with %v", name, SegmentedNames())
		}
		return sm.MineSegmented(ctx, r, s)
	}
	return m.Mine(ctx, d, s)
}

// SegmentedNames lists the engines with an out-of-core path, sorted.
func SegmentedNames() []string {
	var out []string
	for n, m := range registry {
		if _, ok := AsSegmented(m); ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
