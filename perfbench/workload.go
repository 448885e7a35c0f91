package main

import (
	"fmt"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// Every workload runs the 16-NF evaluation topology at 1.2 Mpps over 2048
// Zipf flows. The topology's jitter seed and the flow population are fixed
// parts of the workload. On stream the benchmark seed drives the packet
// arrival schedule: a stream run spreads its cost over 200 windows, so one
// schedule costs about what another does. A batch run fits only one to
// four traces, and across schedule seeds the cost of one trace varies by
// up to half (9.5 s to 13.9 s over ten seeds on batch-burst), so the
// batch workloads keep their schedule seed fixed too and repeat one
// trace. Varying the flow population as well would change
// which flow bursts and which paths it crosses, and the pattern-stage
// cost by a factor of two or more.
const (
	topoSeed = 1
	mixSeed  = 2
	flows    = 2048
	rateMpps = 1.2
	// batchSchedule is the arrival-schedule seed of both batch traces.
	batchSchedule = 3
)

// scenario is one generated trace plus the fault injected into it.
type scenario struct {
	trace *collector.Trace
	// burstFlow is the flow of the injected source burst; zero when the
	// scenario has none.
	burstFlow packet.FiveTuple
	hasBurst  bool
	// culpritNF is the NF whose interrupt is the expected rank-1 culprit
	// when there is no burst.
	culpritNF string
}

type fault struct {
	dur       simtime.Duration
	burstAt   simtime.Duration // 0 = no burst
	burstPkts int
	intNF     string
	intAt     simtime.Duration
	intDur    simtime.Duration
}

var (
	// Equivalent to mschain -dur 20ms -burst 12ms:1500 -interrupt nat1@8ms:800us.
	burstFault = fault{
		dur: 20 * simtime.Millisecond, burstAt: 12 * simtime.Millisecond, burstPkts: 1500,
		intNF: "nat1", intAt: 8 * simtime.Millisecond, intDur: 800 * simtime.Microsecond,
	}
	// Equivalent to mschain -dur 20ms -interrupt fw1@8ms:1ms.
	spreadFault = fault{
		dur:   20 * simtime.Millisecond,
		intNF: "fw1", intAt: 8 * simtime.Millisecond, intDur: simtime.Millisecond,
	}
	// A ~100 ms stream with one burst and one interrupt, so windows
	// around them carry real victims.
	streamFault = fault{
		dur: 100 * simtime.Millisecond, burstAt: 30 * simtime.Millisecond, burstPkts: 1500,
		intNF: "nat1", intAt: 60 * simtime.Millisecond, intDur: 800 * simtime.Microsecond,
	}
)

// generate simulates one trace. The same seed always gives the same trace.
func generate(f fault, seed int64) (*scenario, error) {
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: topoSeed})
	mix := traffic.NewMix(traffic.MixConfig{Flows: flows, Seed: mixSeed})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     simtime.MPPS(rateMpps),
		Duration: f.dur,
		Seed:     seed,
	})
	sc := &scenario{}
	if f.burstAt > 0 {
		sc.burstFlow, sc.hasBurst = mix.Flows[0].Tuple, true
		sched.InjectBurst(traffic.BurstSpec{ID: 1, At: simtime.Time(f.burstAt), Flow: sc.burstFlow, Count: f.burstPkts})
	}
	if f.intNF != "" {
		if topo.Sim.NF(f.intNF) == nil {
			return nil, fmt.Errorf("no NF %q in the evaluation topology", f.intNF)
		}
		topo.Sim.InjectInterrupt(f.intNF, simtime.Time(f.intAt), f.intDur, "perfbench")
		sc.culpritNF = f.intNF
	}
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(f.dur) + simtime.Time(50*simtime.Millisecond))
	sc.trace = col.Trace(collector.MetaFor(topo))
	if len(sc.trace.Records) == 0 {
		return nil, fmt.Errorf("seed %d produced an empty trace", seed)
	}
	return sc, nil
}

// scheduleSeed derives the stream's arrival-schedule seed from the
// benchmark seed.
func scheduleSeed(seed int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	x ^= x >> 31
	return int64(x >> 1)
}
