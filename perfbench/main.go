// Command perfbench is the repository's end-to-end benchmark. Each workload
// is generated in-process from --seed, measured for --seconds, checked
// against a reference computed by a different exact engine, and reported as
// one JSON line on standard output:
//
//	bash perfbench/run.sh --workload t10i4-count --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it times
// every call it makes into the db, engine, ccpd, vbit, rules and serve
// layers, writes the spans to .bench_build/perfbench/, and reports the
// per-layer metrics. BENCHMARK.json at the repository root lists both sets,
// and README.md here maps each layer metric to the end-to-end metric it
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json (a test keeps them in step).
// Every workload reports every metric: each one both runs the batch pipeline
// over its database and serves the database through armined.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipeline_s", "s"},
	{"peak_rss_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"db.read_s", "s"},
	{"db.read_mb_per_s", "MB/s"},
	{"engine.characterize_s", "s"},
	{"engine.plan_s", "s"},
	{"engine.mine_s", "s"},
	{"engine.mine_ccpd_s", "s"},
	{"engine.mine_vbit_s", "s"},
	{"engine.regret", "ratio"},
	{"ccpd.gen_s", "s"},
	{"ccpd.build_s", "s"},
	{"ccpd.count_s", "s"},
	{"ccpd.k2_count_s", "s"},
	{"ccpd.reduce_s", "s"},
	{"ccpd.count_idle_s", "s"},
	{"ccpd.candidates", "count"},
	{"ccpd.frequent_per_candidate", "ratio"},
	{"vbit.dfs_s", "s"},
	{"vbit.class_work", "count"},
	{"vbit.dense_items", "count"},
	{"rules.generate_s", "s"},
	{"rules.generate_fast_s", "s"},
	{"rules.per_s", "1/s"},
	{"serve.validate_us", "us"},
	{"serve.snapshot_mine_s", "s"},
	{"serve.generations", "count"},
	{"serve.mined_tx_ratio", "ratio"},
	{"serve.query_rules_us", "us"},
	{"serve.query_itemsets_us", "us"},
	{"serve.http_overhead_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.pipeline_overhead_s", "s"},
	{"trace.query_p50_overhead_ms", "ms"},
	{"trace.span_coverage", "share"},
}

// minCoverage is the share of pipeline_s the layer spans must account for.
const minCoverage = 0.95

// hostFacts accompany every result so figures from different hosts are
// never compared unknowingly.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() hostFacts {
	h := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	secs := fs.Int("seconds", 10, "measurement budget per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(procs)

	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		w: w, seed: *seed, budget: time.Duration(*secs) * time.Second,
		traced: *traceFlag == 1, tmp: tmp, vals: map[string]float64{}, log: stderr,
	}
	if b.traced {
		b.tr = newTracer()
	}
	host := currentHost()
	if err := b.run(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
		cov := b.vals["trace.span_coverage"]
		b.check(cov >= minCoverage, "layer spans cover %.4f of pipeline_s, below %.2f", cov, minCoverage)
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := b.tr.writeFile(path, w.name, *seed, host); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans:", path)
	}
	res, err := b.result(defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hostJSON, err := json.Marshal(host)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", hostJSON)
	fmt.Fprintf(stdout, "workload=%s seed=%d failed_ratio=%g (%d/%d) %s\n",
		w.name, *seed, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, strings.Join(b.notes, " "))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-30s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result assembles the reported metrics; a metric the run did not measure
// is a bug in the benchmark, not a figure to print as zero.
func (b *bench) result(defs []metricDef) (result, error) {
	res := result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := b.vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return res, errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	return res, nil
}
