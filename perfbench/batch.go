package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/patterns"
	"microscope/internal/tracestore"
)

// readRepeats is how many times set-up reads the trace per repetition;
// setup_s is the median.
const readRepeats = 9

// batchRep is one measured trace → patterns run.
type batchRep struct {
	records int
	wall    time.Duration
	reads   []float64
}

// writeTrace simulates the workload's trace and stores it in a fresh
// directory, as mschain would.
func writeTrace(f fault, dir string) (*scenario, error) {
	sc, err := generate(f, batchSchedule)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := collector.WriteTrace(dir, sc.trace); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	sc.trace = nil // the run works on the trace read back from disk
	return sc, nil
}

// readTrace is the batch set-up: the trace directory is read readRepeats
// times and the last copy kept.
func readTrace(dir string) (*collector.Trace, []float64, error) {
	var tr *collector.Trace
	var reads []float64
	for i := 0; i < readRepeats; i++ {
		tr = nil
		runtime.GC() // each read starts from the same heap
		t0 := time.Now()
		var err error
		tr, err = collector.ReadTrace(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("read trace: %w", err)
		}
		reads = append(reads, time.Since(t0).Seconds())
	}
	return tr, reads, nil
}

// facadeOptions is the configuration of every batch run: victims
// uncapped, patterns on, one worker per CPU.
func facadeOptions() []microscope.Option {
	return []microscope.Option{microscope.WithMaxVictims(0), microscope.WithWorkers(runtime.GOMAXPROCS(0))}
}

// checkCulprit verifies that the rank-1 pattern blames the injected fault:
// the burst flow at the source, or the interrupted NF.
func checkCulprit(sc *scenario, pats []patterns.Pattern) error {
	if len(pats) == 0 {
		return fmt.Errorf("no patterns")
	}
	p := pats[0]
	if sc.hasBurst {
		f := p.CulpritFlow
		if p.CulpritNF.Name != "source" || f.SrcLen != 32 || f.DstLen != 32 || !f.Matches(sc.burstFlow) {
			return fmt.Errorf("rank-1 culprit is %s %s, want the burst flow %v at source", f, p.CulpritNF, sc.burstFlow)
		}
		return nil
	}
	if p.CulpritNF.Name != sc.culpritNF {
		return fmt.Errorf("rank-1 culprit NF is %s, want %s", p.CulpritNF, sc.culpritNF)
	}
	return nil
}

// patternHash is the SHA-256 of the ranked pattern list at full score
// precision.
func patternHash(pats []patterns.Pattern) string {
	h := sha256.New()
	for _, p := range pats {
		fmt.Fprintf(h, "%s score=%.17g\n", p.String(), p.Score)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runBatch measures a batch workload: repetitions on the workload's trace
// until the time budget is spent, each timed from trace in memory to
// ranked pattern list out with tracing off.
func runBatch(f fault, budget time.Duration, work string, out *output) error {
	start := time.Now()
	dir := filepath.Join(work, "trace")
	sc, err := writeTrace(f, dir)
	if err != nil {
		return err
	}
	var reps []batchRep
	for rep := 0; ; rep++ {
		tr, reads, err := readTrace(dir)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		report := microscope.Diagnose(tr, facadeOptions()...)
		wall := time.Since(t0)
		err = checkCulprit(sc, report.Patterns)
		out.tally.add(err != nil)
		if err != nil {
			out.failf("batch rep %d: %v", rep, err)
		}
		reps = append(reps, batchRep{records: len(tr.Records), wall: wall, reads: reads})
		logf("rep %d: %d records, %d victims, %d patterns in %.2fs", rep, len(tr.Records), len(report.Diagnoses), len(report.Patterns), wall.Seconds())
		// Start another repetition only if one more of average length
		// still fits in the budget.
		spent := time.Since(start)
		if spent+spent/time.Duration(rep+1) > budget {
			break
		}
	}
	var records int
	var wall time.Duration
	var lat, reads []float64
	for _, r := range reps {
		records += r.records
		wall += r.wall
		lat = append(lat, float64(r.wall.Microseconds())/1e3)
		reads = append(reads, r.reads...)
	}
	out.set("setup_s", median(reads))
	out.set("records_per_s", float64(records)/wall.Seconds())
	out.set("latency_ms", median(lat))
	return nil
}

// runBatchTraced runs one trace through the facade with tracing off, then
// layer by layer in the facade's order with a span around every call, then
// through the facade again to time it on a heap as warm as the traced
// run's. The pattern lists must hash the same.
func runBatchTraced(f fault, work string, out *output) error {
	dir := filepath.Join(work, "trace")
	sc, err := writeTrace(f, dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	tr, _, err := readTrace(dir)
	if err != nil {
		return err
	}
	runtime.GC()
	hp := startHeapPeak()
	report := microscope.Diagnose(tr, facadeOptions()...)
	out.set("heap_peak_mb", hp.end())
	runtime.GC()

	rec := newRecorder()
	const run = "rep-0"
	root := rec.open(-1, run, "batch")
	readS, _ := rec.call(root, run, "collector.ReadTrace", func() { tr, err = collector.ReadTrace(dir) })
	if err != nil {
		return fmt.Errorf("read trace: %w", err)
	}
	reg := obs.New()
	workers := runtime.GOMAXPROCS(0)
	eng := core.NewEngine(core.Config{Workers: workers, Obs: reg})
	pcfg := patterns.Config{Workers: workers, Obs: reg}
	var (
		st      *tracestore.Store
		victims []core.Victim
		diags   []core.Diagnosis
		rels    []patterns.Relation
		pats    []patterns.Pattern
		aggErr  error
		diagErr error
	)
	buildS, buildA := rec.call(root, run, "tracestore.Build+Reconstruct", func() {
		st = tracestore.Build(tr)
		st.Reconstruct()
	})
	indexS, indexA := rec.call(root, run, "tracestore.Store.Index", func() { st.Index(0) })
	victimsS, victimsA := rec.call(root, run, "core.Engine.FindVictims", func() { victims = eng.FindVictims(st) })
	diagS, diagA := rec.call(root, run, "core.Engine.DiagnoseVictimsStats", func() {
		diags, _, diagErr = eng.DiagnoseVictimsStats(context.Background(), st, victims)
	})
	relS, relA := rec.call(root, run, "patterns.RelationsFromDiagnoses", func() { rels = patterns.RelationsFromDiagnoses(st, diags, pcfg) })
	aggS, aggA := rec.call(root, run, "patterns.AggregateContext", func() {
		pats, aggErr = patterns.AggregateContext(context.Background(), rels, pcfg)
	})
	rec.close(root)
	if diagErr != nil || aggErr != nil {
		return fmt.Errorf("traced run: %v %v", diagErr, aggErr)
	}
	traced := buildS + indexS + victimsS + diagS + relS + aggS
	nVictims, nRels := len(victims), len(rels)
	st, victims, diags, rels = nil, nil, nil, nil
	runtime.GC()
	t0 := time.Now()
	again := microscope.Diagnose(tr, facadeOptions()...)
	untraced := time.Since(t0)

	err = checkCulprit(sc, report.Patterns)
	if err == nil {
		err = checkCulprit(sc, pats)
	}
	if h := patternHash(report.Patterns); err == nil && (h != patternHash(pats) || h != patternHash(again.Patterns)) {
		err = fmt.Errorf("pattern lists of the timed and traced runs differ")
	}
	out.tally.add(err != nil)
	if err != nil {
		out.failf("batch: %v", err)
	}

	hits := reg.Counter("microscope_diag_memo_hits_total").Value()
	misses := reg.Counter("microscope_diag_memo_misses_total").Value()
	phase := func(p string) float64 {
		return float64(reg.Histogram(`microscope_patterns_phase_ns{phase="`+p+`"}`).SumNS()) / 1e9
	}
	mb := func(b ...float64) float64 {
		var s float64
		for _, x := range b {
			s += x
		}
		return s / (1 << 20)
	}
	out.set("collector.read_s", readS.Seconds())
	out.set("tracestore.build_s", buildS.Seconds())
	out.set("tracestore.index_s", indexS.Seconds())
	out.set("tracestore.alloc_mb", mb(buildA, indexA))
	out.set("core.victims_s", victimsS.Seconds())
	out.set("core.victims", float64(nVictims))
	out.set("core.diagnose_s", diagS.Seconds())
	out.set("core.memo_hit_ratio", ratio(hits, hits+misses))
	out.set("core.alloc_mb", mb(victimsA, diagA))
	out.set("patterns.relations_s", relS.Seconds())
	out.set("patterns.relations", float64(nRels))
	out.set("patterns.victims_phase_s", phase("victims"))
	out.set("patterns.victims_groups", float64(reg.Counter(`microscope_patterns_groups_total{phase="victims"}`).Value()))
	out.set("patterns.culprits_phase_s", phase("culprits"))
	out.set("patterns.culprits_groups", float64(reg.Counter(`microscope_patterns_groups_total{phase="culprits"}`).Value()))
	out.set("patterns.emitted", float64(len(pats)))
	out.set("patterns.alloc_mb", mb(relA, aggA))
	out.set("harness.trace_overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	logf("traced: %d victims, %d relations, %d patterns; untraced %.2fs, traced %.2fs (patterns phases %.2fs)",
		nVictims, nRels, len(pats), untraced.Seconds(), traced.Seconds(), phase("victims")+phase("culprits"))
	out.spans = rec
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
