package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/rules"
)

// Handler returns the daemon's HTTP mux. Routes use Go 1.22 method
// patterns; every handler is safe under arbitrary concurrency — queries
// read only the published snapshot pointer and scrape-safe atomics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.ingestHandler)
	mux.HandleFunc("GET /rules", s.rulesHandler)
	mux.HandleFunc("GET /itemsets", s.itemsetsHandler)
	mux.HandleFunc("GET /metrics", s.metricsHandler)
	mux.HandleFunc("GET /healthz", s.healthzHandler)
	return mux
}

// ingestRequest is the /ingest body: transactions as arrays of item ids.
// Items decode as int64 first so out-of-range values are rejected by
// validation instead of silently truncated by a narrow decode.
type ingestRequest struct {
	Transactions [][]int64 `json:"transactions"`
}

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Total    int64  `json:"total"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) ingestHandler(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req ingestRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.ingestErrs.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSONError(w, status, fmt.Sprintf("decode: %v", err))
		return
	}
	batch, err := s.ValidateBatch(req.Transactions)
	if err != nil {
		s.ingestErrs.Add(1)
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	accepted, err := s.Ingest(batch)
	resp := ingestResponse{Accepted: accepted, Total: s.ingestedTx.Load()}
	status := http.StatusAccepted
	if err != nil {
		// Arena overflow: the accepted prefix is durable, the remainder was
		// refused — 507 tells the client the daemon is out of capacity.
		resp.Error = err.Error()
		status = http.StatusInsufficientStorage
	}
	writeJSON(w, status, resp)
}

// ruleJSON is the wire form of one rule.
type ruleJSON struct {
	Antecedent  []int64 `json:"antecedent"`
	Consequent  []int64 `json:"consequent"`
	Support     int64   `json:"support"`
	SupportFrac float64 `json:"supportFrac"`
	Confidence  float64 `json:"confidence"`
	Lift        float64 `json:"lift"`
}

type rulesResponse struct {
	Generation int64      `json:"generation"`
	DBLen      int64      `json:"dbLen"`
	Engine     string     `json:"engine"`
	Count      int        `json:"count"`
	Rules      []ruleJSON `json:"rules"`
}

func (s *Server) rulesHandler(w http.ResponseWriter, r *http.Request) {
	snap := s.published.Load()
	if snap == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	q := r.URL.Query()
	minConf := s.cfg.MinConfidence
	if v := q.Get("minconf"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			writeJSONError(w, http.StatusBadRequest, "minconf must be a float in [0,1]")
			return
		}
		// Snapshots are generated at the configured confidence; queries can
		// only tighten the cut, never loosen it below what was generated.
		if f > minConf {
			minConf = f
		}
	}
	item := int64(-1)
	if v := q.Get("item"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSONError(w, http.StatusBadRequest, "item must be a non-negative integer")
			return
		}
		item = n
	}
	limit, ok := parseLimit(q.Get("limit"))
	if !ok {
		writeJSONError(w, http.StatusBadRequest, "limit must be a non-negative integer")
		return
	}
	rs := snap.QueryRules(minConf, item, limit)
	s.queries.Add(1)
	out := make([]ruleJSON, len(rs))
	for i, rl := range rs {
		out[i] = toRuleJSON(rl)
	}
	writeJSON(w, http.StatusOK, rulesResponse{
		Generation: snap.Generation, DBLen: snap.DBLen, Engine: snap.Engine,
		Count: len(out), Rules: out,
	})
}

func toRuleJSON(r rules.Rule) ruleJSON {
	ante := make([]int64, len(r.Antecedent))
	for i, it := range r.Antecedent {
		ante[i] = int64(it)
	}
	cons := make([]int64, len(r.Consequent))
	for i, it := range r.Consequent {
		cons[i] = int64(it)
	}
	return ruleJSON{
		Antecedent: ante, Consequent: cons,
		Support: r.Support, SupportFrac: r.SupportFrac,
		Confidence: r.Confidence, Lift: r.Lift,
	}
}

type itemsetJSON struct {
	Items []int64 `json:"items"`
	Count int64   `json:"count"`
}

type itemsetsResponse struct {
	Generation int64         `json:"generation"`
	DBLen      int64         `json:"dbLen"`
	Engine     string        `json:"engine"`
	MinCount   int64         `json:"minCount"`
	Count      int           `json:"count"`
	Itemsets   []itemsetJSON `json:"itemsets"`
}

func (s *Server) itemsetsHandler(w http.ResponseWriter, r *http.Request) {
	snap := s.published.Load()
	if snap == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	q := r.URL.Query()
	k := 0
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSONError(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
		k = n
	}
	limit, ok := parseLimit(q.Get("limit"))
	if !ok {
		writeJSONError(w, http.StatusBadRequest, "limit must be a non-negative integer")
		return
	}
	fs := snap.QueryItemsets(k, limit)
	s.queries.Add(1)
	out := make([]itemsetJSON, len(fs))
	for i, f := range fs {
		items := make([]int64, len(f.Items))
		for j, it := range f.Items {
			items[j] = int64(it)
		}
		out[i] = itemsetJSON{Items: items, Count: f.Count}
	}
	writeJSON(w, http.StatusOK, itemsetsResponse{
		Generation: snap.Generation, DBLen: snap.DBLen, Engine: snap.Engine,
		MinCount: snap.Result.MinCount, Count: len(out), Itemsets: out,
	})
}

// metricsHandler renders Prometheus text exposition: the daemon's own
// counters, the published-snapshot gauges, and the live mining recorder.
// Every value read here is an atomic load or an immutable snapshot field,
// so scraping during an active ingest or mine is race-free — the scrape
// Grafana points at a production miner, per the observability roadmap item.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("armined_ingested_transactions_total", "Transactions accepted into the live database.", s.ingestedTx.Load())
	counter("armined_ingest_batches_total", "Ingest requests accepted.", s.ingestBatches.Load())
	counter("armined_ingest_errors_total", "Ingest requests rejected by validation.", s.ingestErrs.Load())
	counter("armined_queries_total", "Rule and itemset queries served.", s.queries.Load())
	counter("armined_remines_total", "Mining generations published.", s.remines.Load())
	counter("armined_remine_errors_total", "Re-mines that failed.", s.remineErrs.Load())
	gauge("armined_uptime_seconds", "Seconds since daemon start.", int64(time.Since(s.startedAt).Seconds()))

	if snap := s.published.Load(); snap != nil {
		gauge("armined_snapshot_generation", "Generation of the published snapshot.", snap.Generation)
		gauge("armined_snapshot_db_transactions", "Transaction prefix covered by the published snapshot.", snap.DBLen)
		gauge("armined_snapshot_rules", "Rules in the published snapshot.", int64(len(snap.Rules)))
		fmt.Fprintf(w, "# HELP %[1]s Wall-clock of the published snapshot's mine in seconds.\n# TYPE %[1]s gauge\n%[1]s %[2]g\n",
			"armined_snapshot_mine_wall_seconds", snap.Wall.Seconds())
	}
	// The live recorder: scrape-safe by construction (atomic per-worker
	// counters), even while a mine is actively recording into it.
	if err := s.rec.WriteMetrics(w); err != nil {
		// Headers are gone; nothing to do but stop writing.
		return
	}
}

type healthzResponse struct {
	Status     string `json:"status"`
	Generation int64  `json:"generation"`
	DBLen      int64  `json:"dbLen"`
	Ingested   int64  `json:"ingested"`
	Engine     string `json:"engine,omitempty"`
}

func (s *Server) healthzHandler(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok", Ingested: s.ingestedTx.Load()}
	if snap := s.published.Load(); snap != nil {
		resp.Generation = snap.Generation
		resp.DBLen = snap.DBLen
		resp.Engine = snap.Engine
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseLimit(v string) (int, bool) {
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
