package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"microscope/internal/collector"
	"microscope/internal/obs"
	"microscope/internal/online"
	"microscope/internal/pipeline"
	"microscope/internal/serve"
	"microscope/internal/simtime"
	"microscope/internal/spec"
)

// Stream geometry: a report every 0.5 ms of trace time over a 5 ms
// analysis span, with the default per-window victim cap.
const (
	slide      = 500 * time.Microsecond
	windowSpan = 5 * time.Millisecond
)

// Frozen on the commit that introduced the benchmark, where the median
// stream max rate of ten runs was about 315,000 records/s on a 2-CPU host:
// the two fixed offered rates (records/s) at 40% and 80% of it, and the
// p90 report-latency limit the rate search holds.
const (
	rateLo         float64 = 125e3
	rateHi         float64 = 250e3
	latencyLimitMs         = 100.0
)

const (
	// searchRes is the rate search's relative resolution, well under the
	// run-to-run bound of stream max rate; searchStep is the factor by
	// which it widens its bracket around the frozen estimate.
	searchRes  = 0.02
	searchStep = 1.25
	// setupRepeats is how many times set-up is repeated; setup_s is the
	// median. One set-up takes a few milliseconds.
	setupRepeats = 25
	// pollEvery is how often the report watcher polls the tenant: fine
	// against report latencies of several milliseconds, coarse enough not
	// to compete for the CPUs it measures.
	pollEvery = 250 * time.Microsecond
	// drainWait bounds how long a pass waits after its last chunk for
	// the report of its last window.
	drainWait = 30 * time.Second
	// settledQueue is the deepest tenant queue, in chunks, a pass may end
	// with: the chunk being fed plus one waiting. More means arrivals
	// outpaced diagnosis.
	settledQueue = 2
	// fixedWindows is the length of a pass: 110 windows leave eleven
	// beyond p90 and let the search refine its bracket within the budget.
	fixedWindows = 110
)

// infMs stands in for an infinite latency (a refused or missing report)
// in the printed results, which must be finite numbers.
const infMs = 1e6

// streamInput is the generated stream: MST2 chunks, one per slide of trace
// time, and the reference fingerprint of every window a replay reports.
type streamInput struct {
	meta   collector.Meta
	chunks [][]byte
	// recs holds each chunk decoded, as the tenant sees it.
	recs [][]collector.BatchRecord
	// cum[k] is the number of records before chunk k.
	cum []int
	// ref maps each reported window end to its fingerprint hash.
	ref map[simtime.Time]string
}

func windowEnd(k int) simtime.Time { return simtime.Time(k+1) * simtime.Time(slide) }

func newStreamInput(seed int64) (*streamInput, error) {
	sc, err := generate(streamFault, scheduleSeed(seed))
	if err != nil {
		return nil, err
	}
	in := &streamInput{meta: sc.trace.Meta}
	var byChunk [][]collector.BatchRecord
	for _, r := range sc.trace.Records {
		k := 0
		if r.At > 0 {
			k = int((r.At - 1) / simtime.Time(slide))
		}
		for len(byChunk) <= k {
			byChunk = append(byChunk, nil)
		}
		byChunk[k] = append(byChunk[k], r)
	}
	total := 0
	for k, rs := range byChunk {
		if len(rs) == 0 {
			return nil, fmt.Errorf("seed %d: no records in chunk %d", seed, k)
		}
		enc := collector.NewEncoder()
		for i := range rs {
			enc.Append(&rs[i])
		}
		b := append([]byte(nil), enc.Bytes()...)
		dec, st, err := collector.DecodeStream(b)
		if err != nil || st.Damaged() || len(dec) != len(rs) {
			return nil, fmt.Errorf("chunk %d does not round-trip: %v", k, err)
		}
		in.chunks = append(in.chunks, b)
		in.recs = append(in.recs, dec)
		in.cum = append(in.cum, total)
		total += len(rs)
	}
	return in, nil
}

// tenantSpec is the spec the benchmark posts to create its tenant.
func tenantSpec(id string, meta collector.Meta) *spec.PipelineSpec {
	return &spec.PipelineSpec{
		Version:  spec.Version,
		Tenant:   id,
		Stream:   spec.StreamSpec{Slide: spec.D(slide), Window: spec.D(windowSpan)},
		Topology: spec.FromMeta(meta),
	}
}

// replay feeds the stream into an in-process monitor built from the
// tenant's resolved spec, the way a tenant's feed goroutine does. feed,
// when set, wraps each Monitor.Feed call; onWindow observes each window.
func (in *streamInput) replay(reg *obs.Registry, feed func(k int, call func()), onWindow func(simtime.Time, *pipeline.Result)) online.Stats {
	mcfg := tenantSpec("replay", in.meta).Resolved().MonitorConfig(reg)
	mcfg.Resilience.ContainPanics = true
	mcfg.OnWindow = onWindow
	mon := online.New(in.meta, mcfg)
	for k, rs := range in.recs {
		call := func() { mon.Feed(rs) }
		if feed != nil {
			feed(k, call)
		} else {
			call()
		}
	}
	return mon.Stats()
}

func fingerprint(res *pipeline.Result) string {
	sum := sha256.Sum256([]byte(res.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// reference replays the stream once to learn every window's fingerprint,
// as a tenant computes it for its reports.
func (in *streamInput) reference() {
	in.ref = make(map[simtime.Time]string)
	in.replay(nil, nil, func(end simtime.Time, res *pipeline.Result) { in.ref[end] = fingerprint(res) })
}

// client posts to one loopback server over a single keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

// post sends body and returns the status code and the Retry-After delay.
func (c *client) post(path, ctype string, body []byte) (int, time.Duration, error) {
	resp, err := c.hc.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	var retry time.Duration
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		retry = time.Duration(s) * time.Second
	}
	return resp.StatusCode, retry, nil
}

func (c *client) createTenant(id string, meta collector.Meta) error {
	body, err := tenantSpec(id, meta).Encode()
	if err != nil {
		return err
	}
	code, _, err := c.post("/tenants", "application/json", body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("POST /tenants: status %d", code)
	}
	return nil
}

func (c *client) postChunk(id string, chunk []byte) (int, time.Duration, error) {
	return c.post("/tenants/"+id+"/records", "application/octet-stream", chunk)
}

// server is the serving tier on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.NewServer(serve.ServerConfig{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: serve.Handler(s.srv)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains every tenant and closes the listener, and returns once the
// serving goroutine has exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// setupOnce times server start, tenant creation via POST /tenants, and the
// acceptance of the first chunk.
func setupOnce(in *streamInput) (time.Duration, error) {
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return 0, err
	}
	c := newClient(s.addr)
	err = c.createTenant("setup", in.meta)
	if err == nil {
		var code int
		code, _, err = c.postChunk("setup", in.chunks[0])
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("first chunk: status %d", code)
		}
	}
	d := time.Since(t0)
	c.hc.CloseIdleConnections()
	if serr := s.stop(); err == nil {
		err = serr
	}
	return d, err
}

// passResult is what one open-loop pass measured.
type passResult struct {
	windows  []windowOutcome
	postMs   []float64 // client-timed POST round trips
	lateMs   []float64 // how late each chunk went out
	queue    []int     // tenant queue depth after each post
	refused  int
	retained int64
	aborted  bool // stopped at the first refusal
	// elapsed runs from when the first chunk was due until the last
	// window's report was visible; 0 when the pass did not get there.
	elapsed time.Duration
}

// verdict reports whether a pass held the latency limit without a growing
// backlog: no refusals, every window reported at full, p90 within the
// limit and the tenant queue no deeper at the end of the pass than
// settledQueue chunks. It returns "" when the pass meets all of them and
// the first condition missed otherwise.
func (p *passResult) verdict() string {
	if p.refused > 0 || p.aborted {
		return "refused"
	}
	for _, w := range p.windows {
		if w.missing || w.degraded {
			return "missing or degraded window"
		}
	}
	if p90 := quantile(latencies(p.windows), 90); p90 > latencyLimitMs {
		return fmt.Sprintf("p90 %.1f ms over the limit", p90)
	}
	if q := p.queue[len(p.queue)-1]; q > settledQueue {
		return fmt.Sprintf("%d chunks queued at the end", q)
	}
	return ""
}

// load is how a pass offers its chunks. With rate set it is an open loop
// at rate records/s: chunk k is due when the records before it would have
// been sent at that rate, whether or not earlier posts have returned.
// With rate 0 it is a closed loop: each chunk is due as soon as the tenant
// holds fewer than depth chunks, queued or being fed. Depth 2 keeps the
// tenant busy without a backlog; depth 1 leaves it idle before each chunk.
type load struct {
	rate  float64
	depth int
}

func openLoop(rate float64) load { return load{rate: rate} }

// pass streams the first n chunks to a fresh tenant under ld. With
// abortOnRefusal the pass ends at the first 429, after backing off for
// its Retry-After.
func (s *server) pass(c *client, in *streamInput, id string, n int, ld load, abortOnRefusal bool) (*passResult, error) {
	if err := c.createTenant(id, in.meta); err != nil {
		return nil, err
	}
	tn, ok := s.srv.Get(id)
	if !ok {
		return nil, fmt.Errorf("tenant %s not found after creation", id)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.srv.Delete(ctx, id); err != nil {
			logf("delete tenant %s: %v", id, err)
		}
	}()

	// The reports a pass can produce: every window closed by a chunk it
	// sends.
	nw := n - 1
	due := make([]time.Time, n)
	visible := make([]time.Time, nw)
	res := &passResult{}

	// The watcher polls for reports until every window is reported or
	// halt is called; halt returns once it has exited.
	stop := make(chan struct{})
	watched := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop); <-watched }) }
	defer halt()
	if ld.rate > 0 {
		t0 := time.Now().Add(time.Millisecond)
		for k := range due {
			due[k] = t0.Add(time.Duration(float64(in.cum[k]) / ld.rate * float64(time.Second)))
		}
	}
	go func() {
		defer close(watched)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		seen := simtime.Time(0)
		for {
			if rep, ok := tn.LatestReport(); ok && rep.End > seen {
				now := time.Now()
				for k := 0; k < nw && windowEnd(k) <= rep.End; k++ {
					if windowEnd(k) > seen {
						visible[k] = now
					}
				}
				seen = rep.End
				if seen >= windowEnd(nw-1) {
					return
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	refusedAt := make([]bool, n)
	for k := 0; k < n; k++ {
		if ld.rate > 0 {
			time.Sleep(time.Until(due[k]))
		} else {
			for tn.Status().QueuedChunks >= ld.depth {
				time.Sleep(pollEvery)
			}
			due[k] = time.Now()
		}
		sent := time.Now()
		code, retry, err := c.postChunk(id, in.chunks[k])
		if err != nil {
			return nil, err
		}
		res.postMs = append(res.postMs, ms(time.Since(sent)))
		res.lateMs = append(res.lateMs, ms(sent.Sub(due[k])))
		res.queue = append(res.queue, tn.Status().QueuedChunks)
		if code == http.StatusTooManyRequests {
			res.refused++
			refusedAt[k] = true
			if abortOnRefusal {
				res.aborted = true
				time.Sleep(retry)
				break
			}
			continue
		}
		if code != http.StatusAccepted {
			return nil, fmt.Errorf("chunk %d: status %d", k, code)
		}
	}
	if !res.aborted {
		// Wait for the report of the last window. An empty queue is not
		// enough: the tenant may still be diagnosing the chunk it took
		// last.
		select {
		case <-watched:
		case <-time.After(drainWait):
		}
	}
	halt()
	res.retained = tn.Status().RetainedBytes
	if !res.aborted && !visible[nw-1].IsZero() {
		res.elapsed = visible[nw-1].Sub(due[0])
	}

	reports := make(map[simtime.Time][]serve.WindowReport)
	for _, r := range tn.Reports(0) {
		reports[r.End] = append(reports[r.End], r)
	}
	for k := 0; k < nw; k++ {
		end := windowEnd(k)
		w := windowOutcome{latencyMs: math.Inf(1)}
		// The chunk after window k carries its first later record.
		w.refused = refusedAt[k+1]
		reps := reports[end]
		switch {
		case len(reps) != 1 || visible[k].IsZero():
			w.missing = true
		default:
			w.latencyMs = ms(visible[k].Sub(due[k+1]))
			w.degraded = reps[0].Degradation != spec.RungFull
			w.mismatch = reps[0].Fingerprint != in.ref[end]
		}
		res.windows = append(res.windows, w)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func finiteMs(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return infMs
	}
	return v
}

// Closed-loop loads of the untraced run.
var (
	// saturated keeps one chunk queued behind the one being fed, so the
	// tenant never waits for input and the queue never grows.
	saturated = load{depth: 2}
	// unloaded sends each chunk once the tenant has fed the one before,
	// so a window's report latency holds no queueing.
	unloaded = load{depth: 1}
)

const (
	// warmupChunks is the length of the untimed pass that warms the heap
	// and the connection before the timed passes.
	warmupChunks = 40
	// minPairs is the fewest pairs of timed passes an untraced run makes,
	// however short its budget.
	minPairs = 3
)

// runStream measures the stream workload. An untraced run times set-up,
// then alternates two passes over the whole stream until the budget is
// spent: a saturated one for the rate at which the tenant reports windows,
// and an unloaded one for the report latency of a window that waits for
// nothing but its own work. Each is the median over its passes. Alternating
// them lets both see the same phases of a shared host, and neither has a
// queue that turns a brief stall into a long wait.
//
// A traced run makes the open-loop passes at rateLo and rateHi for the
// serving-tier metrics, searches for the highest open-loop rate that meets
// the latency limit, then replays the stream into an in-process monitor
// with a span per call and per window stage.
func runStream(seed int64, budget time.Duration, traced bool, out *output) error {
	in, err := newStreamInput(seed)
	if err != nil {
		return err
	}
	in.reference()
	for k := 0; k < len(in.chunks)-1; k++ {
		if _, ok := in.ref[windowEnd(k)]; !ok {
			return fmt.Errorf("replay produced no report for window %v", windowEnd(k))
		}
	}
	logf("stream: %d records in %d chunks", in.cum[len(in.cum)-1]+len(in.recs[len(in.recs)-1]), len(in.chunks))

	start := time.Now()
	if !traced {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			d, err := setupOnce(in)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		out.set("setup_s", median(setups))
	}

	s, err := startServer()
	if err != nil {
		return err
	}
	c := newClient(s.addr)
	defer func() {
		c.hc.CloseIdleConnections()
		if err := s.stop(); err != nil {
			logf("server shutdown: %v", err)
		}
	}()
	passes := 0
	newPass := func(n int, ld load, abortOnRefusal bool) (*passResult, error) {
		passes++
		return s.pass(c, in, fmt.Sprintf("pass-%d", passes), n, ld, abortOnRefusal)
	}

	if !traced {
		warm, err := newPass(warmupChunks, saturated, false)
		if err != nil {
			return err
		}
		countWindows(warm, out)
		// A saturated pass has processed the records of every chunk
		// but the last once its last window is reported.
		n := len(in.chunks)
		records := float64(in.cum[n-1])
		var rates, lats []float64
		t0 := time.Now()
		for pair := 1; ; pair++ {
			sat, err := newPass(n, saturated, false)
			if err != nil {
				return err
			}
			countWindows(sat, out)
			rate := 0.0
			if sat.elapsed > 0 {
				rate = records / sat.elapsed.Seconds()
				rates = append(rates, rate)
			}
			idle, err := newPass(n, unloaded, false)
			if err != nil {
				return err
			}
			countWindows(idle, out)
			lat := latencies(idle.windows)
			lats = append(lats, quantile(lat, 50))
			logf("pair %d: saturated %.0f records/s, unloaded p50 %.2f ms p90 %.2f ms", pair, rate, quantile(lat, 50), quantile(lat, 90))
			// Start another pair only if one more of average length
			// still fits in the budget.
			spent := time.Since(t0)
			if pair >= minPairs && time.Since(start)+spent/time.Duration(pair) > budget {
				break
			}
		}
		if len(rates) == 0 {
			return fmt.Errorf("no saturated pass reported its last window")
		}
		out.set("records_per_s", median(rates))
		out.set("latency_ms", finiteMs(median(lats)))
		return nil
	}

	var post, late []float64
	refused, queueMax := 0, 0
	for _, f := range []struct {
		suffix string
		rate   float64
	}{{"lo", rateLo}, {"hi", rateHi}} {
		hp := startHeapPeak()
		p, err := newPass(fixedWindows+1, openLoop(f.rate), false)
		heap := hp.end()
		if err != nil {
			return err
		}
		if f.rate == rateLo {
			out.set("heap_peak_mb", heap)
		}
		if pct, ok := tailPercentile(len(p.windows)); !ok || pct < 90 {
			return fmt.Errorf("a pass of %d windows is too short for p90", len(p.windows))
		}
		logPass(p, f.rate)
		countWindows(p, out)
		lat := latencies(p.windows)
		out.set("report_p50_ms_"+f.suffix, finiteMs(quantile(lat, 50)))
		out.set("report_p90_ms_"+f.suffix, finiteMs(quantile(lat, 90)))
		post = append(post, p.postMs...)
		late = append(late, p.lateMs...)
		refused += p.refused
		for _, q := range p.queue {
			queueMax = max(queueMax, q)
		}
		out.set("report_windows", float64(len(p.windows)))
		out.set("retained_mb", float64(p.retained)/(1<<20))
	}
	out.set("failed_frac", out.tally.frac())
	out.set("serve.post_p50_ms", quantile(post, 50))
	out.set("serve.post_p90_ms", quantile(post, 90))
	out.set("serve.refused", float64(refused))
	out.set("serve.queue_max", float64(queueMax))
	out.set("harness.gen_late_p90_ms", quantile(late, 90))
	searchEnd := start.Add(budget)
	best, err := searchMaxRate(fixedWindows+1, newPass, func() bool { return time.Now().After(searchEnd) })
	if err != nil {
		return err
	}
	out.set("serve.search_max_rps", best)
	return in.tracedReplay(out)
}

// searchMaxRate finds the highest open-loop rate that meets the latency
// limit without a growing backlog. A pass that misses the limit is run up
// to twice more before it counts as failed, so that a brief stall of the
// host does not end the search low; a refusal fails at once.
// Once done reports true the search stops refining its bracket.
func searchMaxRate(n int, newPass func(n int, ld load, abortOnRefusal bool) (*passResult, error), done func() bool) (float64, error) {
	var passErr error
	best, tries := searchRate(rateHi/0.8, searchStep, 1e3, 20e6, searchRes, done, func(rate float64) bool {
		for try := 0; try < 3 && passErr == nil; try++ {
			p, err := newPass(n, openLoop(rate), true)
			if err != nil {
				passErr = err
				return false
			}
			for _, w := range p.windows {
				if w.mismatch && p.refused == 0 {
					passErr = fmt.Errorf("window fingerprint differs from the reference at %.0f records/s", rate)
					return false
				}
			}
			v := p.verdict()
			logf("search at %.0f records/s: p90 %.2f ms, queue end %d: %s",
				rate, quantile(latencies(p.windows), 90), p.queue[len(p.queue)-1], cmp.Or(v, "meets"))
			if v == "" {
				return true
			}
			if p.refused > 0 {
				return false
			}
		}
		return false
	})
	if passErr != nil {
		return 0, passErr
	}
	if best == 0 {
		return 0, fmt.Errorf("no offered rate met the %.0f ms limit", latencyLimitMs)
	}
	logf("search max rate %.0f records/s after %d rates", best, tries)
	return best, nil
}

func logPass(p *passResult, rate float64) {
	lat := latencies(p.windows)
	logf("fixed pass at %.0f records/s: %d windows, p50 %.2f ms, p90 %.2f ms, refused %d",
		rate, len(p.windows), quantile(lat, 50), quantile(lat, 90), p.refused)
}

// countWindows books each window of a fixed-rate pass as one operation.
// A refused chunk drops records, so the windows after it legitimately
// differ from the reference: they count as failed but are no error. A
// mismatch or a lost report with every chunk accepted is wrong output.
func countWindows(p *passResult, out *output) {
	failed, wrong := 0, 0
	for _, w := range p.windows {
		out.tally.add(w.failed())
		if w.failed() {
			failed++
		}
		if p.refused == 0 && (w.mismatch || w.missing) {
			wrong++
		}
	}
	if wrong > 0 {
		out.failf("stream: %d of %d windows missing or differing from the reference", wrong, len(p.windows))
	} else if failed > 0 {
		logf("stream: %d of %d windows failed (%d chunks refused)", failed, len(p.windows), p.refused)
	}
}

// tracedReplay replays the stream twice more, checking every window
// against the reference: untraced, then with a span per Monitor.Feed call
// and each window's pipeline stages under it.
func (in *streamInput) tracedReplay(out *output) error {
	mismatch := 0
	check := func(end simtime.Time, res *pipeline.Result) {
		if in.ref[end] != fingerprint(res) {
			mismatch++
		}
	}
	runtime.GC()
	t0 := time.Now()
	in.replay(nil, nil, check)
	untraced := time.Since(t0)
	runtime.GC()

	rec := newRecorder()
	reg := obs.New()
	stageS := make(map[string]float64)
	var victims, relations int
	var feedS, feedAlloc float64
	feedSpan := -1
	t0 = time.Now()
	stats := in.replay(reg, func(k int, call func()) {
		feedSpan = rec.open(-1, fmt.Sprintf("chunk-%d", k), "online.Monitor.Feed")
		a0 := heapAllocs()
		call()
		feedAlloc += float64(heapAllocs() - a0)
		feedS += rec.close(feedSpan).Seconds()
	}, func(end simtime.Time, res *pipeline.Result) {
		check(end, res)
		victims += len(res.Victims)
		relations += res.Relations
		run := "window@" + end.String()
		root := feedSpan
		for _, sp := range res.Spans {
			if sp.Parent < 0 {
				root = rec.add(feedSpan, run, "pipeline.window", sp.Start, sp.Start.Add(sp.Dur))
			}
		}
		for _, sp := range res.Spans {
			if sp.Parent >= 0 {
				rec.add(root, run, "pipeline."+sp.Name, sp.Start, sp.Start.Add(sp.Dur))
			}
		}
		for _, st := range res.Stages {
			stageS[st.Name] += st.Elapsed.Seconds()
		}
	})
	tracedWall := time.Since(t0)
	if mismatch > 0 {
		out.tally.add(true)
		out.failf("stream: %d windows of the replays differ from the reference", mismatch)
	}
	hits := reg.Counter("microscope_diag_memo_hits_total").Value()
	misses := reg.Counter("microscope_diag_memo_misses_total").Value()
	out.set("tracestore.seal_s", stageS["ingest"])
	out.set("tracestore.assemble_s", stageS["merge"])
	out.set("tracestore.index_s", stageS["index"])
	out.set("core.victims_s", stageS["victims"])
	out.set("core.victims", float64(victims))
	out.set("core.diagnose_s", stageS["diagnose"])
	out.set("core.memo_hit_ratio", ratio(hits, hits+misses))
	out.set("patterns.relations", float64(relations))
	out.set("patterns.relations_s", stageS["patterns"])
	out.set("online.feed_s", feedS)
	out.set("online.alloc_mb", feedAlloc/(1<<20))
	out.set("online.windows", float64(stats.Windows))
	out.set("online.degraded", float64(stats.Degraded))
	out.set("harness.trace_overhead_frac", tracedWall.Seconds()/untraced.Seconds()-1)
	logf("replay: untraced %.2fs, traced %.2fs, %d windows", untraced.Seconds(), tracedWall.Seconds(), stats.Windows)
	out.spans = rec
	return nil
}
