package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// The sched-sim workload is the scaling-curve configuration: a generated
// mix on a 1024-processor, 16-shard core with the allocation trace and
// per-iteration rows off. It has no wire or disk, so rpc and durability
// changes predict no change here.
const (
	simProcs        = 1024
	simShards       = 16
	simJobs         = 100000
	simMaxProcs     = 64
	simInterarrival = 2.0
	// simsPerSecond sizes the fixed work: one round is one whole
	// simulation, and a run makes simsPerSecond × --seconds of them.
	simsPerSecond = 0.8
	simSetupReps  = 3
)

// simDigest is the deterministic summary of a simulation: identical seeds
// must give identical digests.
type simDigest struct {
	jobs        int
	makespan    float64
	utilization float64
}

func digest(res *simcluster.Result) simDigest {
	return simDigest{jobs: len(res.Jobs), makespan: res.Makespan, utilization: res.Utilization}
}

// checkSim verifies every job finished.
func checkSim(res *simcluster.Result, jobs int) error {
	if len(res.Jobs) != jobs {
		return fmt.Errorf("simulation finished %d jobs, want %d", len(res.Jobs), jobs)
	}
	for _, j := range res.Jobs {
		if j.End <= 0 || j.End < j.Start || j.Start < j.Submit {
			return fmt.Errorf("job %s did not finish (submit %g start %g end %g)", j.Name, j.Submit, j.Start, j.End)
		}
	}
	return nil
}

func checkDigest(got, want simDigest) error {
	if got != want {
		return fmt.Errorf("simulation digest %+v differs from %+v under the same seed", got, want)
	}
	return nil
}

func simCore() *scheduler.Core {
	core := scheduler.NewCoreSharded(simProcs, simShards, true)
	core.DisableTrace()
	return core
}

func newSim(params *perfmodel.Params, mix []simcluster.JobInput, core *scheduler.Core) *simcluster.Sim {
	return simcluster.New(simProcs, simcluster.Dynamic, params, mix).WithCore(core).WithoutIterRecords()
}

func runSchedSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	params := perfmodel.SystemX()
	jobs := scaled(simJobs, cfg.scale, 200)
	rounds := scaled(int(simsPerSecond*float64(cfg.seconds)+0.5), 1, 3)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: generate the mix and construct the simulation, repeated.
	var (
		mix          []simcluster.JobInput
		setups, gens []float64
		sim          *simcluster.Sim
	)
	for r := 0; r < simSetupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		mix, err = workload.Generate(workload.GenConfig{
			Seed: cfg.seed, Jobs: jobs, MeanInterarrival: simInterarrival, MaxProcs: simMaxProcs,
		})
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		t1 := time.Now()
		sim = newSim(params, mix, simCore())
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(t1.Sub(t0)))
	}
	o.e2e["setup_s"] = median(setups)

	// Each round starts from a collected heap, so where the collector
	// happens to run relative to the previous round's garbage does not
	// move peak RSS.
	var rs roundStats
	var roundMs []float64
	var first simDigest
	u0 := sampleUsage()
	for r := 0; r < rounds; r++ {
		if sim == nil {
			sim = newSim(params, mix, simCore())
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		res, err := sim.Run()
		d, cpu := time.Since(t0), cpuTime()-c0
		sim = nil
		o.attempted += jobs
		if err != nil {
			return nil, fmt.Errorf("simulation round %d: %w", r, err)
		}
		if tr != nil {
			tr.add("simcluster.run", int64(r), 0, int64(t0.Sub(tr.epoch)), int64(t0.Add(d).Sub(tr.epoch)))
		}
		roundMs = append(roundMs, ms(d))
		rs.add(jobs, d, cpu, nil)
		if err := checkSim(res, jobs); err != nil {
			o.check(err)
			continue
		}
		if r == 0 {
			first = digest(res)
		} else {
			o.check(checkDigest(digest(res), first))
		}
	}
	p := u0.until(sampleUsage())
	rs.report(o)
	// One simulation is one request: its latency is the time to simulate
	// the whole mix. The tail is p90 over the run's rounds.
	o.e2e["latency_p50_ms"] = median(roundMs)
	o.e2e["latency_tail_ms"] = percentile(append([]float64(nil), roundMs...), tailPct)
	o.common(p, o.attempted)
	o.layers["workload.generate_ms"] = median(gens)
	if !cfg.trace {
		return o, nil
	}

	// Traced: record the simulation's op stream through the journal hook
	// (this doubles as the traced round, whose extra time is the tracing
	// overhead), then replay it through Core.Apply on fresh cores.
	core := simCore()
	ops := make([]scheduler.Op, 0, 12*jobs)
	core.SetJournal(func(op scheduler.Op) error { ops = append(ops, op); return nil })
	t0 := time.Now()
	res, err := newSim(params, mix, core).Run()
	tracedMs := ms(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("traced simulation: %w", err)
	}
	o.check(checkDigest(digest(res), first))
	tr.add("simcluster.run.traced", -1, 0, int64(t0.Sub(tr.epoch)), tr.now())

	var replayMs []float64
	for r := 0; r < 3; r++ {
		fresh := simCore()
		t0 := time.Now()
		for i := range ops {
			if err := fresh.Apply(ops[i]); err != nil {
				return nil, fmt.Errorf("replay op %d: %w", i, err)
			}
		}
		d := time.Since(t0)
		tr.add("scheduler.core_apply", int64(-2-r), 0, int64(t0.Sub(tr.epoch)), int64(t0.Add(d).Sub(tr.epoch)))
		replayMs = append(replayMs, ms(d))
	}
	simMs, applyMs := median(roundMs), median(replayMs)
	o.layers["scheduler.core_apply_ns_per_op"] = applyMs * 1e6 / float64(len(ops))
	o.layers["simcluster.self_ms"] = simMs - applyMs
	o.layers["simcluster.ops_per_job"] = float64(len(ops)) / float64(jobs)
	o.layers["trace.overhead_pct"] = overheadPct([]float64{tracedMs}, roundMs)
	// The layers' self times (core replay plus the simulator's remainder,
	// which sum to an untraced round) against the traced round's wall time.
	o.layers["trace.coverage"] = simMs / tracedMs
	o.spans = tr
	return o, nil
}
