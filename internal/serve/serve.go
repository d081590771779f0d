// Package serve is the armined daemon core: the library's batch miners
// turned into a long-running mining-as-a-service process with streaming
// ingestion and concurrent rule queries — ROADMAP item 1.
//
// The design is a strict split of mutable and immutable state:
//
//   - Ingestion (POST /ingest) appends validated transaction batches into a
//     mutable in-memory db.Database under a mutex, overflow-aware through
//     db.TryAppend. Batches are validated and normalized outside the lock
//     (the SaM split-and-merge shape: per-chunk local work, a short merge
//     into global state).
//   - A single background re-mine loop wakes on ingestion, takes an O(1)
//     frozen prefix view (db.SnapshotView) under the lock, and mines it
//     outside the lock through the unified engine registry — the cost-based
//     engine.Planner re-chooses the engine per re-mine from the database's
//     current shape (density drifts as data streams in), and
//     engine.Dispatch runs it under the loop's context so shutdown cancels
//     a mine mid-flight via the engine's Mine.
//   - The mine's result plus a pre-generated rules.GenerateFast rule list
//     (with a per-item query index) freeze into an immutable Snapshot,
//     published by an atomic.Pointer swap. Query handlers (GET /rules,
//     /itemsets, /healthz) only ever load the pointer: readers never take
//     the ingest lock, never block a mine, and always see a complete,
//     internally consistent generation.
//
// Consistency model: queries trail ingestion by at most one re-mine cycle
// (a snapshot's Generation and DBLen say exactly which prefix it covers),
// and a published snapshot is bit-identical to a batch engine.Dispatch +
// rules.GenerateFast run over the same transaction prefix — the engines'
// exactness guarantee carries over to the service.
//
// Observability is scrape-safe by construction: GET /metrics renders the
// daemon's own atomic counters plus the live obs.Recorder snapshot, whose
// per-worker counters are atomics precisely so a scrape mid-mine is
// race-free.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/rules"
)

// Config carries the daemon's mining policy and ingestion limits. The zero
// value is unusable; fill Support and take the rest from withDefaults.
type Config struct {
	// Support is the fractional minimum support each re-mine resolves
	// against the current database size (apriori.CeilSupport semantics).
	Support float64
	// MinConfidence is the rule-generation confidence threshold baked into
	// every published snapshot; /rules queries may filter above it, never
	// below.
	MinConfidence float64
	// MaxConsequent bounds rule consequent size (0 = unbounded).
	MaxConsequent int
	// Procs is the worker count handed to parallel engines.
	Procs int
	// Engine pins a registry engine by name; "" or "auto" re-plans per
	// re-mine through the cost-based planner.
	Engine string
	// MaxK bounds the mined itemset size (0 = fixpoint).
	MaxK int
	// RemineInterval is the debounce between consecutive re-mines: after a
	// mine completes the loop sleeps this long before honoring the next
	// dirty signal, so a steady ingest stream coalesces into periodic
	// re-mines instead of mining after every batch. Default 100ms.
	RemineInterval time.Duration
	// MaxBatch caps transactions per ingest request (default 65536).
	MaxBatch int
	// MaxTxItems caps items per transaction (default 4096).
	MaxTxItems int
	// MaxItem is the exclusive item-universe bound; ingested items must lie
	// in [0, MaxItem). Default 1<<20.
	MaxItem int64
	// MaxBodyBytes caps the /ingest request body (default 8 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.RemineInterval <= 0 {
		c.RemineInterval = 100 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 65536
	}
	if c.MaxTxItems <= 0 {
		c.MaxTxItems = 4096
	}
	if c.MaxItem <= 0 {
		c.MaxItem = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the daemon state. Construct with New, serve Handler() over
// HTTP, and run the re-mine loop with Run.
type Server struct {
	cfg Config
	rec *obs.Recorder

	mu sync.Mutex
	//armlint:guardedby mu
	live *db.Database
	//armlint:guardedby mu
	nextTID int64

	// dirty is the re-mine wakeup: ingestion sends one token (non-blocking,
	// capacity 1), the loop drains it. A token left while a mine runs simply
	// triggers the next cycle — signals coalesce.
	dirty chan struct{}
	// published is the immutable snapshot swap point. Readers Load, the
	// re-mine loop Stores; no reader ever blocks.
	published atomic.Pointer[Snapshot]
	// loopDone closes when Run returns (shutdown drain point).
	loopDone chan struct{}

	startedAt time.Time

	// Scrape-safe daemon counters (see metricsHandler).
	ingestedTx    atomic.Int64 // transactions accepted
	ingestBatches atomic.Int64 // ingest requests accepted (fully or partially)
	ingestErrs    atomic.Int64 // ingest requests rejected by validation
	queries       atomic.Int64 // rule/itemset queries served
	remines       atomic.Int64 // snapshots published
	remineErrs    atomic.Int64 // re-mines that failed (non-cancellation)
}

// New builds a Server with an empty database.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:       cfg,
		rec:       obs.NewRecorder(cfg.Procs),
		live:      db.New(0),
		dirty:     make(chan struct{}, 1),
		loopDone:  make(chan struct{}),
		startedAt: time.Now(),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Published returns the current snapshot, or nil before the first publish.
func (s *Server) Published() *Snapshot { return s.published.Load() }

// Ingested returns the total accepted transaction count.
func (s *Server) Ingested() int64 { return s.ingestedTx.Load() }

// batchTooLarge and friends classify ingest failures for the HTTP layer.
var (
	errBatchTooLarge = errors.New("serve: batch exceeds MaxBatch")
	errEmptyBatch    = errors.New("serve: empty batch")
)

// txError is a per-transaction validation failure naming the offending
// batch index, mirroring the binary reader's out-of-universe diagnostics.
type txError struct {
	Index int
	Err   error
}

func (e *txError) Error() string { return fmt.Sprintf("transaction %d: %v", e.Index, e.Err) }

// ValidateBatch bounds-checks one ingest batch against the configured
// limits — the JSON twin of the PR 3 binary-reader validation: batch size,
// per-transaction length, and item range are all checked before anything
// touches shared state. It returns the normalized (sorted, deduplicated)
// itemsets, ready for TryAppend.
func (s *Server) ValidateBatch(txs [][]int64) ([]itemset.Itemset, error) {
	if len(txs) == 0 {
		return nil, errEmptyBatch
	}
	if len(txs) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", errBatchTooLarge, len(txs), s.cfg.MaxBatch)
	}
	out := make([]itemset.Itemset, len(txs))
	for i, tx := range txs {
		if len(tx) == 0 {
			return nil, &txError{i, errors.New("no items")}
		}
		if len(tx) > s.cfg.MaxTxItems {
			return nil, &txError{i, fmt.Errorf("%d items > limit %d", len(tx), s.cfg.MaxTxItems)}
		}
		items := make([]itemset.Item, len(tx))
		for j, v := range tx {
			if v < 0 || v >= s.cfg.MaxItem {
				return nil, &txError{i, fmt.Errorf("item %d outside universe [0,%d)", v, s.cfg.MaxItem)}
			}
			items[j] = itemset.Item(v) // bounds-checked above: MaxItem caps below 2³¹
		}
		out[i] = itemset.New(items...) // sorts + dedups
	}
	return out, nil
}

// Ingest appends a validated batch into the live database and signals the
// re-mine loop. Only the append itself runs under the lock — validation and
// normalization happened in ValidateBatch, outside. Returns the number of
// transactions accepted; on db.ErrArenaFull the prefix that fit stays
// ingested (every accepted transaction is durable in-memory) and the error
// reports the overflow.
func (s *Server) Ingest(batch []itemset.Itemset) (int, error) {
	s.mu.Lock()
	accepted := 0
	var err error
	for _, items := range batch {
		if err = s.live.TryAppend(s.nextTID, items); err != nil {
			break
		}
		s.nextTID++
		accepted++
	}
	s.mu.Unlock()

	if accepted > 0 {
		s.ingestedTx.Add(int64(accepted))
		s.ingestBatches.Add(1)
		s.markDirty()
	}
	return accepted, err
}

// markDirty wakes the re-mine loop (coalescing, never blocking).
func (s *Server) markDirty() {
	select {
	case s.dirty <- struct{}{}:
	default:
	}
}

// Run is the background re-mine loop: wake on ingestion, mine the frozen
// prefix, publish, debounce, repeat. It exits when ctx is canceled — a mine
// in flight is canceled cooperatively through the engine's Mine and its
// partial result is discarded. Call exactly once, in its own goroutine;
// Wait blocks until it has exited.
func (s *Server) Run(ctx context.Context) {
	defer close(s.loopDone)
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.dirty:
		}
		s.remine(ctx)
		// Debounce: coalesce a steady ingest stream into periodic re-mines.
		timer := time.NewTimer(s.cfg.RemineInterval)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// Wait blocks until the Run loop has exited (graceful-shutdown drain).
func (s *Server) Wait() { <-s.loopDone }

// remine takes the frozen prefix view and publishes a fresh snapshot from
// it, unless nothing new arrived since the last publish.
func (s *Server) remine(ctx context.Context) {
	s.mu.Lock()
	view := s.live.SnapshotView()
	s.mu.Unlock()

	cur := s.published.Load()
	if view.Len() == 0 || (cur != nil && cur.DBLen == int64(view.Len())) {
		return
	}
	gen := int64(1)
	if cur != nil {
		gen = cur.Generation + 1
	}
	snap, err := s.mineSnapshot(ctx, view, gen)
	if err != nil {
		var canceled *robust.CanceledError
		if errors.As(err, &canceled) || ctx.Err() != nil {
			return // shutdown mid-mine: discard the partial result quietly
		}
		s.remineErrs.Add(1)
		return
	}
	s.published.Store(snap)
	s.remines.Add(1)
	// More data may have streamed in while mining; re-arm so the loop
	// catches up without waiting for the next ingest.
	s.mu.Lock()
	grew := s.live.Len() > view.Len()
	s.mu.Unlock()
	if grew {
		s.markDirty()
	}
}

// Plan resolves the engine name and Spec for mining the given view — the
// daemon's single mining policy, shared by the re-mine loop and the
// equivalence tests (which replay it batch-side to assert bit-identity).
// With Engine unset or "auto" the cost-based planner re-decides per call
// from the view's current shape.
func (s *Server) Plan(view *db.Database) (string, engine.Spec) {
	spec := engine.Spec{
		Mining: apriori.Options{
			MinSupport: s.cfg.Support, MaxK: s.cfg.MaxK,
			ShortCircuit: true, Hash: hashtree.HashBitonic,
		},
		Procs:   s.cfg.Procs,
		Counter: hashtree.CounterPrivate,
		Balance: ccpd.BalanceBitonic,
		DBPart:  ccpd.PartitionBlock,
		// ChunkSize doubles as the engines' cancellation poll stride, so a
		// shutdown interrupts a mine promptly.
		ChunkSize: 256,
	}
	name := s.cfg.Engine
	if name == "" || name == "auto" {
		plan := engine.Planner{Procs: s.cfg.Procs}.Plan(engine.Characterize(view))
		name = plan.Engine
		spec.DBPart = plan.DBPart
		spec.ChunkSize = plan.ChunkSize
	}
	return name, spec
}

// mineSnapshot dispatches one mine over the frozen view and freezes the
// result plus its pre-generated rule index into a publishable Snapshot.
func (s *Server) mineSnapshot(ctx context.Context, view *db.Database, gen int64) (*Snapshot, error) {
	name, spec := s.Plan(view)
	// The recorder accumulates one mine at a time: Reset is safe against
	// concurrent scrapes (atomic counters, mutex-guarded master stats), and
	// a Prometheus counter reset is ordinary scrape semantics.
	s.rec.Reset()
	spec.Obs = s.rec

	t0 := time.Now()
	res, _, err := engine.Dispatch(ctx, name, view, nil, spec)
	if err != nil {
		return nil, err
	}
	rs := rules.GenerateFast(res, rules.Options{
		MinConfidence: s.cfg.MinConfidence,
		DBSize:        int64(view.Len()),
		MaxConsequent: s.cfg.MaxConsequent,
	})
	return newSnapshot(gen, view, name, res, rs, time.Since(t0)), nil
}
