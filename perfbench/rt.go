package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/redistrib"
	"repro/internal/resize"
	"repro/internal/scheduler"
	sdk "repro/pkg/reshape"
)

// The resize-runtime workload runs a benchmark-owned 2-D block-cyclic
// application under pkg/reshape.Run. resize.ScriptedClient replays a
// fixed expand/shrink cycle, one resize at every resize point, and each
// iteration is a light read-only sweep, so the resize point dominates and
// the number of resizes never depends on measured timings.
const (
	rtResizes         = 300 // resize points per round (one Run)
	rtRoundsPerSecond = 3
	rtArrays          = 2
	rtDim             = 192 // each array is rtDim×rtDim
	rtBlock           = 8
)

var (
	rtStart = grid.Topology{Rows: 2, Cols: 2}
	// rtCycle is the repeated resize script: 2×2→2×3→3×3→2×3→2×2.
	rtCycle = []grid.Topology{{Rows: 2, Cols: 3}, {Rows: 3, Cols: 3}, {Rows: 2, Cols: 3}, {Rows: 2, Cols: 2}}
)

func rtArrayName(k int) string { return fmt.Sprintf("a%d", k) }

// rtFill is array k's initial contents under a seed; redistribution
// must preserve it.
func rtFill(seed int64, k int) func(i, j int) float64 {
	base := float64(seed%1000)*1e7 + float64(k)*1e6
	return func(i, j int) float64 { return base + float64(i*rtDim+j) }
}

func rtScript(n int) []scheduler.Decision {
	script := make([]scheduler.Decision, n)
	prev := rtStart
	for i := range script {
		t := rtCycle[i%len(rtCycle)]
		act := scheduler.ActionExpand
		if t.Count() < prev.Count() {
			act = scheduler.ActionShrink
		}
		script[i] = scheduler.Decision{Action: act, Target: t}
		prev = t
	}
	return script
}

// stall is one resize point as rank 0 sees it: the gap between the end
// of one Iterate and the start of the next.
type stall struct {
	expand bool
	d      time.Duration
	start  time.Time
}

// sweepApp is the benchmark's resizable application. Only rank 0 records
// timings; the final iteration gathers every array to rank 0.
type sweepApp struct {
	iters int
	seed  int64

	mu       sync.Mutex
	first    time.Time // start of the first Iterate
	lastEnd  time.Time
	lastTopo grid.Topology
	stalls   []stall
	gathered [][]float64
	sweepSum float64 // rank 0's sweep results, kept so the sweep is not dead code
}

func (a *sweepApp) Init(rc *sdk.Context) error {
	for k := 0; k < rtArrays; k++ {
		arr := rc.RegisterArray(rtArrayName(k), rtDim, rtDim, rtBlock, rtBlock)
		rc.FillArray(arr, rtFill(a.seed, k))
	}
	return nil
}

func (a *sweepApp) Iterate(rc *sdk.Context) error {
	rank0 := rc.Rank() == 0
	if rank0 {
		now := time.Now()
		a.mu.Lock()
		if a.first.IsZero() {
			a.first = now
		} else {
			a.stalls = append(a.stalls, stall{expand: rc.Topo().Count() > a.lastTopo.Count(), d: now.Sub(a.lastEnd), start: a.lastEnd})
		}
		a.mu.Unlock()
	}
	s := 0.0
	for k := 0; k < rtArrays; k++ {
		arr, _ := rc.Array(rtArrayName(k))
		for _, v := range arr.Data {
			s += v
		}
	}
	if rc.Iter() == a.iters-1 {
		a.gather(rc)
	}
	if rank0 {
		a.mu.Lock()
		a.sweepSum += s
		a.lastEnd = time.Now()
		a.lastTopo = rc.Topo()
		a.mu.Unlock()
	}
	return nil
}

// gather assembles every array on rank 0 from the ranks' local pieces.
func (a *sweepApp) gather(rc *sdk.Context) {
	comm := rc.Comm()
	for k := 0; k < rtArrays; k++ {
		arr, _ := rc.Array(rtArrayName(k))
		pieces := comm.GatherFloats(0, arr.Data)
		if comm.Rank() != 0 {
			continue
		}
		l := arr.LayoutFor(rc.Topo())
		global := make([]float64, rtDim*rtDim)
		for r, piece := range pieces {
			pr, pc := l.Coords(r)
			cols := l.LocalCols(pc)
			for li := 0; li < l.LocalRows(pr); li++ {
				for lj := 0; lj < cols; lj++ {
					i, j := l.LocalToGlobal(pr, pc, li, lj)
					global[i*rtDim+j] = piece[li*cols+lj]
				}
			}
		}
		a.mu.Lock()
		a.gathered = append(a.gathered, global)
		a.mu.Unlock()
	}
}

// checkArrays verifies the gathered arrays equal their fill functions.
func checkArrays(seed int64, gathered [][]float64) error {
	if len(gathered) != rtArrays {
		return fmt.Errorf("gathered %d arrays, want %d", len(gathered), rtArrays)
	}
	for k, g := range gathered {
		f := rtFill(seed, k)
		for i := 0; i < rtDim; i++ {
			for j := 0; j < rtDim; j++ {
				if g[i*rtDim+j] != f(i, j) {
					return fmt.Errorf("array %s element (%d,%d) = %g, want %g", rtArrayName(k), i, j, g[i*rtDim+j], f(i, j))
				}
			}
		}
	}
	return nil
}

func checkResizes(rep *sdk.Report, want int) error {
	if rep.Resizes != want {
		return fmt.Errorf("report counts %d resizes, script has %d", rep.Resizes, want)
	}
	return nil
}

// rtRound is one measured Run.
type rtRound struct {
	start  time.Time
	setup  time.Duration // Run call → first Iterate: world spawn, Init, fill
	loop   time.Duration // first Iterate → last Iterate end
	wall   time.Duration
	stalls []stall
	redist []float64 // ms, from EventResize via the SDK Logger (traced only)
}

func runRound(seed int64, resizes int, traced bool) (*rtRound, *sdk.Report, [][]float64, error) {
	app := &sweepApp{iters: resizes + 1, seed: seed}
	client := &resize.ScriptedClient{Script: rtScript(resizes)}
	opts := []sdk.Option{
		sdk.WithScheduler(client), sdk.WithTopology(rtStart), sdk.WithMaxIterations(resizes + 1),
	}
	var redist []float64
	if traced {
		opts = append(opts, sdk.WithLogger(func(ev sdk.Event) {
			if ev.Kind == sdk.EventResize {
				redist = append(redist, ev.Seconds*1e3)
			}
		}))
	}
	t0 := time.Now()
	rep, err := sdk.Run(context.Background(), app, opts...)
	wall := time.Since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	return &rtRound{
		start: t0, setup: app.first.Sub(t0), loop: app.lastEnd.Sub(app.first), wall: wall,
		stalls: app.stalls, redist: redist,
	}, rep, app.gathered, nil
}

func runResizeRuntime(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	resizes := scaled(rtResizes, cfg.scale, 2*len(rtCycle))
	rounds := scaled(rtRoundsPerSecond*cfg.seconds, 1, 3)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var rs roundStats
	var setups, tracedWall, untracedWall []float64
	var expand, shrink, redist, overhead []float64
	var tracedSelf float64
	u0 := sampleUsage()
	for r := 0; r < rounds; r++ {
		traced := cfg.trace && r%2 == 1
		runtime.GC() // each Run, set-up included, starts from a collected heap
		c0 := cpuTime()
		rd, rep, gathered, err := runRound(cfg.seed, resizes, traced)
		cpu := cpuTime() - c0
		o.attempted += resizes
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		o.check(checkResizes(rep, resizes))
		o.check(checkArrays(cfg.seed, gathered))
		setups = append(setups, rd.setup.Seconds())
		if !traced {
			untracedWall = append(untracedWall, rd.wall.Seconds())
			stallMs := make([]float64, 0, len(rd.stalls))
			for _, s := range rd.stalls {
				stallMs = append(stallMs, ms(s.d))
				if s.expand {
					expand = append(expand, ms(s.d))
				} else {
					shrink = append(shrink, ms(s.d))
				}
			}
			rs.add(resizes, rd.loop, cpu, stallMs)
			continue
		}
		tracedWall = append(tracedWall, rd.wall.Seconds())
		tracedSelf += rd.loop.Seconds()
		runStart := int64(rd.start.Sub(tr.epoch))
		root := tr.add("reshape.run", int64(r), 0, runStart, runStart+int64(rd.wall))
		for i, s := range rd.stalls {
			start := int64(s.start.Sub(tr.epoch))
			id := tr.add("resize.stall", int64(r), root, start, start+int64(s.d))
			if i < len(rd.redist) {
				red := rd.redist[i]
				redist = append(redist, red)
				overhead = append(overhead, ms(s.d)-red)
				// The SDK reports the redistribution's duration, not its
				// start; it is placed at the start of the stall it ran in.
				tr.add("redistrib.redistribute", int64(r), id, start, start+int64(red*1e6))
			}
		}
	}
	p := u0.until(sampleUsage())
	o.e2e["setup_s"] = median(setups)
	rs.report(o)
	o.common(p, o.attempted)
	if !cfg.trace {
		return o, nil
	}

	o.layers["resize.expand_stall_ms"] = percentile(expand, 50)
	o.layers["resize.shrink_stall_ms"] = percentile(shrink, 50)
	o.layers["redistrib.redist_ms"] = percentile(redist, 50)
	o.layers["resize.overhead_ms"] = percentile(overhead, 50)
	o.layers["trace.overhead_pct"] = overheadPct(tracedWall, untracedWall)
	// Iterate sweeps and resize stalls tile the loop; coverage is the
	// loop's share of each traced Run (the rest is spawn, Init and exit).
	o.layers["trace.coverage"] = tracedSelf / sum(tracedWall)
	build, msgs, err := planStats()
	if err != nil {
		return nil, err
	}
	o.layers["redistrib.plan_build_us"] = build
	o.layers["redistrib.msgs_per_resize"] = msgs
	o.layers["redistrib.bytes_per_resize"] = 8 * rtArrays * rtDim * rtDim
	o.spans = tr
	return o, nil
}

func rtLayouts(t grid.Topology) []blockcyclic.Layout {
	ls := make([]blockcyclic.Layout, rtArrays)
	for k := range ls {
		ls[k] = blockcyclic.Layout{M: rtDim, N: rtDim, MB: rtBlock, NB: rtBlock, Grid: t}
	}
	return ls
}

// planStats times redistrib.NewMultiPlan on the script's grid pairs and
// counts the messages one execution of each pair sends (ExecuteStats),
// both averaged per resize of the cycle.
func planStats() (buildUs, msgsPerResize float64, err error) {
	const reps = 200
	var perPair []float64
	prev := rtStart
	var msgs int
	for _, to := range rtCycle {
		src, dst := rtLayouts(prev), rtLayouts(to)
		t0 := time.Now()
		var mp *redistrib.MultiPlan
		for i := 0; i < reps; i++ {
			if mp, err = redistrib.NewMultiPlan(src, dst); err != nil {
				return 0, 0, err
			}
		}
		perPair = append(perPair, us(time.Since(t0))/reps)
		n := max(prev.Count(), to.Count())
		var mu sync.Mutex
		err = mpi.NewWorld().Run(n, func(c *mpi.Comm) error {
			data := make([][]float64, rtArrays)
			if c.Rank() < prev.Count() {
				for k := range data {
					data[k] = make([]float64, src[k].LocalSize(c.Rank()))
				}
			}
			_, st := mp.ExecuteStats(c, data)
			mu.Lock()
			msgs += st.MessagesSent
			mu.Unlock()
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		prev = to
	}
	return mean(perPair), float64(msgs) / float64(len(rtCycle)), nil
}
