// Command perfbench is the repository's benchmark: one in-process driver
// that composes the gtmd stack from public constructors — gateway, wire
// engine, core GTM, ldbs, store drivers, and shard for scale-out — and
// loads it from one seeded process over two TCP connections, many logical
// mobile sessions multiplexed over them by gateway.MuxConn.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload travel|readmix|scaleout --seed N --seconds S --trace 0|1
//	perfbench --selftest
//
// A run has a warm-up, an open phase (Poisson arrivals at the workload's
// fixed rate, generated from the seed before timing starts; tasks are
// timed from their due time, less the generator's timer overshoot) and a
// closed phase (a fixed number of sessions, each sending its next task
// when the last one finishes). Every run checks the outcome with the
// workload's oracle (oracle.go).
//
// --trace 0 prints the end-to-end metrics; set-up is repeated (see
// runOnce) and its median reported. --trace 1 runs the same seed untraced
// and then traced: the traced run wraps every layer boundary (wrap.go),
// dumps its spans, and prints the per-layer metrics (layers.go), including
// the tracing overhead against the untraced run.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when a check fails or any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Phase lengths as shares of --seconds, the fixed warm-up, the fewest
// set-ups of an untraced run and the time they must add up to, and how
// many windows each phase is cut into for the median of per-window figures:
// open-phase p50s over openWindows, closed-phase p99s over tailWindows
// (few enough that each window keeps ten or more samples beyond its p99),
// throughput over closedWindows.
const (
	openShare     = 0.4
	warmup        = time.Second
	setupRounds   = 9
	setupBudget   = 500 * time.Millisecond
	openWindows   = 16
	tailWindows   = 3
	closedWindows = 12
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"txn_p50_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: travel, readmix or scaleout")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 10, "measured seconds per run (open + closed phase)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	work := flag.String("work", ".bench_build/work", "directory for data files, span dumps and result records")
	commit := flag.String("commit", "unknown", "source revision, for the result record")
	selftest := flag.Bool("selftest", false, "run every workload briefly with all checks, then exit")
	flag.Parse()

	if *selftest {
		return runSelftest(*work)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	out, rec, err := measure(w, *seed, *secs, *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec["commit"] = *commit
	if !out.Correct || out.Failed > 0 {
		out.Metrics = map[string]metricValue{} // a failed run reports failure, not numbers
	}
	if err := writeRecord(*work, w.name, *seed, *trace, rec, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result record:", err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload at one seed and returns the result line and
// the result record. An error means the benchmark itself could not run.
func measure(w *workload, seed int64, secs float64, traced bool, work string) (*output, map[string]any, error) {
	rec := record(w, seed, secs, traced)
	if !traced {
		res, err := runOnce(w, seed, secs, nil, true, work)
		if err != nil {
			return nil, nil, err
		}
		out := res.output()
		out.Metrics = endToEndMetrics(res)
		rec["check"] = res.checkMsg()
		rec["closed_window_rates"] = res.windowRates()
		rec["setup_rounds_s"] = res.setup
		rec["page_cache_bytes"] = res.cacheBytes
		rec["open_read_p50_ms"] = windowed(res.rec.readOpen, res.openSecs, openWindows, 0.5)
		rec["closed_read_p99_ms"] = windowed(res.rec.readClosed, res.closedSecs, tailWindows, 0.99)
		rec["closed_commits_per_s"] = float64(len(res.rec.txnClosed)) / res.closedSecs
		return out, rec, nil
	}
	base, err := runOnce(w, seed, secs, nil, false, work)
	if err != nil {
		return nil, nil, err
	}
	res, err := runOnce(w, seed, secs, newTracer(), false, work)
	if err != nil {
		return nil, nil, err
	}
	out := res.output()
	out.Correct = out.Correct && base.checkErr == nil && base.rec.errs == 0
	out.Failed += base.rec.errs
	out.Metrics = layerMetrics(res, base)
	rec["check"] = res.checkMsg()
	rec["untraced_check"] = base.checkMsg()
	// One dump per workload, overwritten by its next traced run: a dump
	// holds up to a million spans.
	spansPath := filepath.Join(work, w.name+".spans.tsv")
	if err := dumpSpans(spansPath, res.spans); err != nil {
		return nil, nil, fmt.Errorf("span dump: %w", err)
	}
	rec["span_dump"] = spansPath
	return out, rec, nil
}

// output builds the result line's outcome fields.
func (res *runResult) output() *output {
	return &output{
		Correct:   res.checkErr == nil && res.rec.errs == 0,
		Attempted: max(res.rec.attempted, 1),
		Failed:    res.rec.errs,
	}
}

func (res *runResult) checkMsg() string {
	switch {
	case res.checkErr != nil:
		return res.checkErr.Error()
	case res.rec.firstErr != nil:
		return "failed operation: " + res.rec.firstErr.Error()
	}
	return "ok"
}

// endToEndMetrics derives the --trace 0 metrics from an untraced run.
func endToEndMetrics(res *runResult) map[string]metricValue {
	r := res.rec
	vals := map[string]float64{
		"setup_s":       median(res.setup),
		"tasks_per_s":   res.tasksPerSec(),
		"txn_p50_ms":    windowed(r.txnOpen, res.openSecs, openWindows, 0.5),
		"commit_p50_ms": windowed(r.commitOpen, res.openSecs, openWindows, 0.5),
		"txn_p99_ms":    windowed(r.txnClosed, res.closedSecs, tailWindows, 0.99),
		"heap_peak_mb":  float64(res.heapPeak) / (1 << 20),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// record is the result record's fixed part: machine, toolchain, seed,
// workload parameters and flush policy.
func record(w *workload, seed int64, secs float64, traced bool) map[string]any {
	return map[string]any{
		"workload":          w.name,
		"why":               w.why,
		"seed":              seed,
		"seconds":           secs,
		"traced":            traced,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"cpu":               cpuModel(),
		"go":                runtime.Version(),
		"params":            w.params,
		"open_rate":         w.rate,
		"closed":            w.closed,
		"connections":       w.spec().conns,
		"invoke_timeout_ms": invokeTimeout.Milliseconds(),
		"flush_policy":      flushPolicy,
	}
}

// flushPolicy is the same on every run and every workload.
const flushPolicy = "every WAL, scaleout's included, is appended to a file in the work " +
	"directory whose Sync returns without forcing it (as on tmpfs); device latency is ldbs " +
	"SyncDelay (2 ms on travel and scaleout, none on readmix); scaleout's disk-driver page " +
	"files are fsynced by each checkpoint, which calls the driver directly: commits keep " +
	"logging during it and the WAL is not truncated"

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord saves the full record with its result line.
func writeRecord(work, name string, seed int64, trace int, rec map[string]any, out *output) error {
	rec["result"] = out
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), b, 0o644)
}

// runSelftest runs every workload for about a second, traced and
// untraced, with every check.
func runSelftest(work string) int {
	status := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			out, _, err := measure(w, 1, 1, traced, work)
			switch {
			case err != nil:
				fmt.Printf("FAIL %s traced=%v: %v\n", w.name, traced, err)
				status = 1
			case !out.Correct || out.Failed > 0:
				fmt.Printf("FAIL %s traced=%v: correct=%v failed=%d\n", w.name, traced, out.Correct, out.Failed)
				status = 1
			default:
				fmt.Printf("ok   %s traced=%v: %d tasks in %.1fs\n", w.name, traced, out.Attempted, time.Since(start).Seconds())
			}
		}
	}
	return status
}
