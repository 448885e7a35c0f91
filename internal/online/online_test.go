package online

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/leakcheck"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// monitoredRun simulates a chain and returns the trace plus meta.
func monitoredRun(t *testing.T, interruptsAt []simtime.Time) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 5,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	iv := simtime.MPPS(0.4).Interval()
	var ems []traffic.Emission
	i := 0
	for tt := simtime.Time(0); tt < simtime.Time(500*simtime.Millisecond); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: tt,
			Flow: packet.FiveTuple{
				SrcIP: packet.IPFromOctets(10, 0, 0, byte(i%50)), DstIP: packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%50), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	for _, at := range interruptsAt {
		sim.InjectInterrupt("fw1", at, 900*simtime.Microsecond, "mon")
	}
	sim.Run(simtime.Time(600 * simtime.Millisecond))
	return col.Trace(collector.MetaForChain(sim, []string{"nat1", "fw1"}))
}

func TestMonitorAlertsOnInterrupts(t *testing.T) {
	leakcheck.Check(t)
	tr := monitoredRun(t, []simtime.Time{
		simtime.Time(150 * simtime.Millisecond),
		simtime.Time(400 * simtime.Millisecond),
	})
	m := New(tr.Meta, Config{})
	// Feed in chunks like a drain loop would.
	var alerts []Alert
	const chunk = 5000
	for i := 0; i < len(tr.Records); i += chunk {
		end := i + chunk
		if end > len(tr.Records) {
			end = len(tr.Records)
		}
		alerts = append(alerts, m.Feed(tr.Records[i:end])...)
	}
	alerts = append(alerts, m.Flush()...)

	fw := 0
	for _, a := range alerts {
		if a.Comp == "fw1" && a.Kind == core.CulpritLocalProcessing {
			fw++
		}
		if a.Score <= 0 || a.Victims <= 0 {
			t.Errorf("degenerate alert: %v", a)
		}
	}
	if fw < 2 {
		t.Errorf("expected alerts for both interrupts, got %d fw1 alerts: %v", fw, alerts)
	}
	// Hold-off keeps each episode to one alert.
	if fw > 4 {
		t.Errorf("episodes over-alerted: %d: %v", fw, alerts)
	}
	st := m.Stats()
	if st.Windows < 4 || st.Records != len(tr.Records) {
		t.Errorf("stats: %+v", st)
	}
	// The stream index tracked every flush and eviction kept pace.
	sst := m.StreamStats()
	if sst.Records == 0 || sst.SealedSegments == 0 {
		t.Errorf("stream never ingested: %+v", sst)
	}
	if sst.RetainedSegments > 8 {
		t.Errorf("eviction not keeping pace: %+v", sst)
	}
}

func TestMonitorQuietStream(t *testing.T) {
	tr := monitoredRun(t, nil)
	m := New(tr.Meta, Config{})
	alerts := m.Feed(tr.Records)
	alerts = append(alerts, m.Flush()...)
	if len(alerts) != 0 {
		t.Errorf("quiet stream raised %d alerts: %v", len(alerts), alerts)
	}
}

func TestMonitorAlertString(t *testing.T) {
	a := Alert{WindowEnd: 100, Comp: "fw1", Kind: core.CulpritLocalProcessing, Score: 42, Victims: 3, Onset: 50}
	s := a.String()
	for _, want := range []string{"fw1", "processing", "42", "victims=3"} {
		if !contains(s, want) {
			t.Errorf("alert string missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestMonitorEmptyFlush(t *testing.T) {
	m := New(collector.Meta{MaxBatch: 32}, Config{})
	if got := m.Flush(); got != nil {
		t.Errorf("empty flush: %v", got)
	}
}

// TestMonitorToleratesLateRecords shuffles bounded lateness into the feed:
// the monitor must re-sort analysable records, drop only those behind an
// already-diagnosed window, and still alert on the real interrupt.
func TestMonitorToleratesLateRecords(t *testing.T) {
	tr := monitoredRun(t, []simtime.Time{simtime.Time(150 * simtime.Millisecond)})
	// Swap adjacent records to simulate cross-core drain interleaving.
	recs := append([]collector.BatchRecord(nil), tr.Records...)
	for i := 1; i < len(recs); i += 7 {
		recs[i-1], recs[i] = recs[i], recs[i-1]
	}
	m := New(tr.Meta, Config{})
	var alerts []Alert
	const chunk = 5000
	for i := 0; i < len(recs); i += chunk {
		end := i + chunk
		if end > len(recs) {
			end = len(recs)
		}
		alerts = append(alerts, m.Feed(recs[i:end])...)
	}
	alerts = append(alerts, m.Flush()...)
	if m.Stats().LateAccepted == 0 {
		t.Fatalf("no late records re-sorted: %+v", m.Stats())
	}
	found := false
	for _, a := range alerts {
		if a.Comp == "fw1" && a.Kind == core.CulpritLocalProcessing {
			found = true
			if a.Health.Records == 0 {
				t.Fatalf("alert carries empty health: %+v", a.Health)
			}
		}
	}
	if !found {
		t.Fatalf("interrupt not alerted under late delivery: %v", alerts)
	}
}

// TestWindowBoundaryRecord: a record timestamped exactly at a window end
// belongs to the window it closes (flushWindow's cut predicate is
// At > end), so Feed must buffer it before flushing — never flush the
// window out from under it and strand it in the next one.
func TestWindowBoundaryRecord(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	m := New(collector.Meta{MaxBatch: 32}, Config{Window: w, Overlap: 1})
	m.Feed([]collector.BatchRecord{
		{Comp: "nf1", At: simtime.Time(w) / 2, Dir: collector.DirRead, IPIDs: []uint16{1}},
		{Comp: "nf1", At: simtime.Time(w), Dir: collector.DirRead, IPIDs: []uint16{2}},
	})
	if st := m.Stats(); st.Windows != 0 {
		t.Fatalf("boundary record flushed its own window early: %+v", st)
	}
	// The first record strictly past the boundary closes the window, with
	// the boundary record inside it.
	m.Feed([]collector.BatchRecord{
		{Comp: "nf1", At: simtime.Time(w) + 1, Dir: collector.DirRead, IPIDs: []uint16{3}},
	})
	if st := m.Stats(); st.Windows != 1 {
		t.Fatalf("strictly-later record did not close the window: %+v", st)
	}
	if h, ok := m.Health(); !ok || h.Records != 2 {
		t.Fatalf("closing window analysed %d records (ok=%v), want 2 — boundary record excluded", h.Records, ok)
	}
}

// TestWatermarkResyncAfterGap: a stream gap longer than MaxLookahead must
// not poison the monitor forever. The guard drops the first beyond-horizon
// records — indistinguishable from corruption — but once ResyncAfter
// mutually-consistent timestamps arrive in a row, the watermark jumps
// forward and the stream flows again. Lone corrupt timestamps still die at
// the guard, and any in-horizon record resets the run.
func TestWatermarkResyncAfterGap(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	m := New(collector.Meta{MaxBatch: 32}, Config{
		Window:       w,
		Overlap:      w / 5,
		MaxLookahead: 4 * w,
		ResyncAfter:  5,
		Resilience:   resilience.Config{ContainPanics: true},
	})
	rec := func(i int, at simtime.Time) collector.BatchRecord {
		return collector.BatchRecord{Comp: "nf1", At: at, Dir: collector.DirRead, IPIDs: []uint16{uint16(i)}}
	}
	var recs []collector.BatchRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, rec(i, simtime.Time(i)*simtime.Time(w)/10))
	}
	m.Feed(recs)
	if st := m.Stats(); st.ImplausibleDropped != 0 {
		t.Fatalf("clean prefix tripped the plausibility guard: %+v", st)
	}
	// A lone corrupt far-future timestamp is dropped, no resync...
	m.Feed([]collector.BatchRecord{rec(100, simtime.Time(99*w))})
	if st := m.Stats(); st.ImplausibleDropped != 1 || st.WatermarkResyncs != 0 {
		t.Fatalf("lone corrupt timestamp not dropped cleanly: %+v", st)
	}
	// ...and the next in-horizon record resets the consistency run, so the
	// lone corruption cannot count toward the resumed stream's run below
	// even though it happens to land near it.
	m.Feed([]collector.BatchRecord{rec(101, simtime.Time(2*w)+1)})
	// The stream resumes 100 windows out — far beyond MaxLookahead. The
	// first ResyncAfter-1 resumed records are still dropped; the run's
	// completing record is accepted, the watermark jumps, and everything
	// after flows normally.
	gap := simtime.Time(100 * w)
	var resumed []collector.BatchRecord
	for i := 0; i < 10; i++ {
		resumed = append(resumed, rec(200+i, gap+simtime.Time(i)*simtime.Time(w)/10))
	}
	before := m.Stats().Records
	m.Feed(resumed)
	st := m.Stats()
	if st.WatermarkResyncs != 1 {
		t.Fatalf("gap did not resync the watermark: %+v", st)
	}
	// 1 lone corrupt + the 4 run records before the resync completed.
	if st.ImplausibleDropped != 5 {
		t.Fatalf("implausible drops = %d, want 5: %+v", st.ImplausibleDropped, st)
	}
	if got := st.Records - before; got != 6 {
		t.Fatalf("post-gap records accepted = %d, want 6 — the stream is still poisoned: %+v", got, st)
	}
}

// TestMonitorMonotoneCounters: Unmatched/Quarantined come from the
// stream's seal-time totals, so they stay monotone across watermark
// resyncs and never replay overlap damage after a resync jump.
func TestMonitorMonotoneCounters(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	m := New(collector.Meta{
		Components: []collector.ComponentMeta{
			{Name: "src", Kind: "source"},
			{Name: "nf1", Kind: "nf", PeakRate: simtime.MPPS(1), Egress: true},
		},
		Edges:    []collector.Edge{{From: "src", To: "nf1"}},
		MaxBatch: 32,
	}, Config{
		Window:       w,
		Overlap:      w / 5,
		MaxLookahead: 4 * w,
		ResyncAfter:  2,
	})
	// Each burst leaves one unmatched read (dequeue IPID matches no
	// arrival), straddling flush boundaries via the overlap.
	burst := func(at simtime.Time, id uint16) []collector.BatchRecord {
		return []collector.BatchRecord{
			{Comp: "src", Queue: "nf1.in", At: at, IPIDs: []uint16{id}, Dir: collector.DirWrite},
			{Comp: "nf1", At: at + 10, IPIDs: []uint16{id + 1000}, Dir: collector.DirRead},
		}
	}
	prev := 0
	check := func() {
		um := m.Stats().Unmatched
		if um < prev {
			t.Fatalf("Unmatched went backwards: %d -> %d", prev, um)
		}
		prev = um
	}
	for i := 0; i < 6; i++ {
		m.Feed(burst(simtime.Time(i)*simtime.Time(w)+simtime.Time(w)/2, uint16(i+1)))
		check()
	}
	// Resync jump: the stream gap exceeds MaxLookahead; after ResyncAfter
	// consistent records the watermark leaps. Counters must not replay.
	far := simtime.Time(200 * w)
	m.Feed(burst(far, 50))
	m.Feed(burst(far+simtime.Time(w)/4, 51))
	m.Feed(burst(far+simtime.Time(w), 52))
	m.Feed(burst(far+2*simtime.Time(w), 53))
	check()
	if m.Stats().WatermarkResyncs == 0 {
		t.Fatalf("gap did not resync: %+v", m.Stats())
	}
	m.Flush()
	check()
	if prev == 0 {
		t.Fatal("no unmatched reads ever counted — the probe is inert")
	}
}

// TestMonitorDropsAncientRecords: a record behind the last diagnosed window
// must be dropped and counted, never analysed twice or crash the sort.
func TestMonitorDropsAncientRecords(t *testing.T) {
	tr := monitoredRun(t, nil)
	m := New(tr.Meta, Config{})
	m.Feed(tr.Records)
	if m.Stats().Windows == 0 {
		t.Fatal("no windows flushed")
	}
	before := m.Stats().Records
	m.Feed([]collector.BatchRecord{{Comp: "nat1", At: 1, Dir: collector.DirRead, IPIDs: []uint16{1}}})
	st := m.Stats()
	if st.LateDropped != 1 {
		t.Fatalf("ancient record not dropped: %+v", st)
	}
	if st.Records != before {
		t.Fatal("dropped record still counted as fed")
	}
}
