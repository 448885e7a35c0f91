// Command perfbench is the repository benchmark. It measures Microscope
// from outside, through its public entry points, on three workloads:
//
//	batch-burst   trace → ranked patterns with concentrated culprit mass
//	batch-spread  trace → ranked patterns with diffuse culprits
//	stream        one msserve tenant fed MST2 chunks over loopback HTTP
//
// Usage (from the repository root, via perfbench/run.sh which builds it):
//
//	perfbench --workload batch-burst --seed 1 --seconds 40 --trace 0
//
// It checks every result, prints a table of the metrics to standard
// output and, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 prints the end-to-end metrics,
// measured with tracing off; --trace 1 makes a traced run, prints the
// per-layer metrics and writes its spans under .bench_build/spans. The
// exit code is non-zero when any check fails. README.md in this directory
// defines each metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// directory it runs in.
const buildDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd are the metrics of --trace 0 runs, defined on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"latency_ms", "ms"},
}

// workloadName is what each generic end-to-end metric measures on a
// workload, printed beside it in the table.
var workloadName = map[string]map[string]string{
	"batch-burst":  {"records_per_s": "batch_records_per_s", "latency_ms": "batch_wall_ms"},
	"batch-spread": {"records_per_s": "batch_records_per_s", "latency_ms": "batch_wall_ms"},
	"stream":       {"records_per_s": "stream_max_rps, saturated", "latency_ms": "report_p50_ms_unloaded"},
}

// perLayer are the metrics of --trace 1 runs. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"heap_peak_mb", "MB"},
	{"collector.read_s", "s"},
	{"tracestore.build_s", "s"},
	{"tracestore.index_s", "s"},
	{"tracestore.seal_s", "s"},
	{"tracestore.assemble_s", "s"},
	{"tracestore.alloc_mb", "MB"},
	{"core.victims_s", "s"},
	{"core.victims", "count"},
	{"core.diagnose_s", "s"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.alloc_mb", "MB"},
	{"patterns.relations_s", "s"},
	{"patterns.relations", "count"},
	{"patterns.victims_phase_s", "s"},
	{"patterns.victims_groups", "count"},
	{"patterns.culprits_phase_s", "s"},
	{"patterns.culprits_groups", "count"},
	{"patterns.emitted", "count"},
	{"patterns.alloc_mb", "MB"},
	{"online.feed_s", "s"},
	{"online.alloc_mb", "MB"},
	{"online.windows", "count"},
	{"online.degraded", "count"},
	{"serve.post_p50_ms", "ms"},
	{"serve.post_p90_ms", "ms"},
	{"serve.refused", "count"},
	{"serve.queue_max", "count"},
	{"serve.search_max_rps", "1/s"},
	{"report_p50_ms_lo", "ms"},
	{"report_p90_ms_lo", "ms"},
	{"report_p50_ms_hi", "ms"},
	{"report_p90_ms_hi", "ms"},
	{"report_windows", "count"},
	{"retained_mb", "MB"},
	{"failed_frac", "ratio"},
	{"harness.gen_late_p90_ms", "ms"},
	{"harness.trace_overhead_frac", "ratio"},
}

// output collects one run's metrics, checks and spans.
type output struct {
	values map[string]float64
	tally  tally
	errs   []string
	spans  *recorder
}

func (o *output) set(name string, v float64) { o.values[name] = v }

func (o *output) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.errs = append(o.errs, msg)
	logf("FAILED: %s", msg)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "batch-burst, batch-spread or stream")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "time budget of the measured part of a run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("--seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	out := &output{values: make(map[string]float64)}
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	defer os.RemoveAll(work)
	budget := time.Duration(*seconds) * time.Second

	var err error
	switch *workload {
	case "batch-burst", "batch-spread":
		f := burstFault
		if *workload == "batch-spread" {
			f = spreadFault
		}
		if traced {
			err = runBatchTraced(f, work, out)
		} else {
			err = runBatch(f, budget, work, out)
		}
	case "stream":
		err = runStream(*seed, budget, traced, out)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	if out.spans != nil {
		path, err := out.spans.write(filepath.Join(buildDir, "spans"), fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err != nil {
			logf("write spans: %v", err)
			return 1
		}
		logf("%d spans written to %s", len(out.spans.spans), path)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := jsonResult{
		Correct:   len(out.errs) == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !traced {
			err = errors.Join(err, fmt.Errorf("metric %s was not measured", d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err = errors.Join(err, fmt.Errorf("metric %s is %v", d.name, v))
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	printTable(*workload, res)
	b, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(workload string, res jsonResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d attempted, %d failed (failed_frac %.4g)\n", workload, res.Attempted, res.Failed, (tally{res.Attempted, res.Failed}).frac())
	for _, n := range names {
		m := res.Metrics[n]
		label := n
		if alias := workloadName[workload][n]; alias != "" {
			label += " (" + alias + ")"
		}
		fmt.Printf("  %-40s %14.6g %s\n", label, m.Value, m.Unit)
	}
}
