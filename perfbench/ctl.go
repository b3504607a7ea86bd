package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durability"
	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/resize"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/scheduler/fairshare"
)

// ctlSpec configures one control-plane workload: a closed loop of depth
// workers, each driving one job at a time through submit → contacts →
// resize-complete (whenever a resize is granted) → job-end, because an
// application's resize point blocks on the scheduler's reply.
type ctlSpec struct {
	durable bool
	sync    durability.SyncPolicy // durable only
	procs   int
	depth   int // jobs in flight
	conns   int
	tenants []string
	weights map[string]float64
	// statusEvery issues one Status read after every statusEvery-th job
	// (0 = none). Status copies every job ever submitted, so its cost is
	// set by the history size, which the fixed job count pins.
	statusEvery int
	watch       bool
	limits      rpc.Limits
	// jobsPerSecond sizes the fixed work: jobsPerSecond × --seconds jobs.
	// It is a constant, so the work never depends on measured timings.
	jobsPerSecond int
	roundJobs     int
	// warmupJobs is set-up's fixed warm-up. It is long enough to span
	// several of the interval policy's 100 ms background fsyncs, so
	// whether one lands inside set-up does not decide setup_s.
	warmupJobs int
	setupReps  int
	// seededJobs is the history the ctl-durable WAL is seeded with before
	// set-up; its size spans several snapshot cycles.
	seededJobs int
}

// snapshotEvery is the daemon's default -snapshot-every.
const snapshotEvery = 10000

// The job chain tops out at 4 processors and the pool holds depth×4, so
// no job ever queues and every expansion the policy wants fits: the op
// count of every job is then a function of its plan alone.
var ctlChain = []grid.Topology{{Rows: 1, Cols: 1}, {Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}}

// ctlDurable fsyncs in the background (the daemon's -wal-sync interval,
// every 100 ms) rather than on every append: under SyncAlways the run was
// bound by fsync latency on the shared virtual disk, which drifted by a
// quarter between ten-run sets (throughput quartile spread 0.30, p90 0.39
// over seeds 41–50), too wide for any bound.
var ctlDurable = ctlSpec{
	durable:       true,
	sync:          durability.SyncInterval,
	procs:         16, // the daemon's default -procs
	depth:         4,
	conns:         1,
	jobsPerSecond: 2000,
	roundJobs:     1000,
	warmupJobs:    500,
	setupReps:     9,
	seededJobs:    6000,
}

var ctlTenants = ctlSpec{
	procs:       24,
	depth:       6,
	conns:       2,
	tenants:     []string{"acme", "beta", "gamma"},
	weights:     map[string]float64{"acme": 3, "beta": 2, "gamma": 1},
	statusEvery: 32,
	watch:       true,
	// Admission control is on with limits no closed loop of this depth
	// reaches, so the admission path runs and nothing sheds.
	limits: rpc.Limits{
		TenantRate: 1e6, TenantBurst: 1e6, TenantInflight: 1024,
		ConnRate: 1e6, ConnBurst: 1e6, ConnInflight: 1024,
	},
	jobsPerSecond: 1000,
	roundJobs:     500,
	warmupJobs:    500,
	setupReps:     9,
}

func runCtlDurable(cfg runConfig) (*outcome, error) { return runCtl(cfg, ctlDurable) }
func runCtlTenants(cfg runConfig) (*outcome, error) { return runCtl(cfg, ctlTenants) }

// jobPlan is one job's script, derived from the seed. The application
// reports iteration times from T(p) = serial + par/p + contention·p, so
// some jobs' expansions help and others are shrunk back by the policy.
type jobPlan struct {
	spec                    scheduler.JobSpec
	contacts                int
	serial, par, contention float64
}

func (p *jobPlan) iterTime(t grid.Topology) float64 {
	n := float64(t.Count())
	return p.serial + p.par/n + p.contention*n
}

func planJobs(seed int64, prefix string, n int, tenants []string) []jobPlan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]jobPlan, n)
	for i := range plans {
		tenant := ""
		if len(tenants) > 0 {
			tenant = tenants[rng.Intn(len(tenants))]
		}
		contacts := 3 + rng.Intn(4)
		plans[i] = jobPlan{
			spec: scheduler.JobSpec{
				Name: prefix + strconv.Itoa(i), App: "mm", ProblemSize: 480, BlockSize: 8,
				Iterations: contacts + 1, Tenant: tenant,
				InitialTopo: ctlChain[rng.Intn(2)], Chain: ctlChain,
			},
			contacts:   contacts,
			serial:     0.2 + rng.Float64(),
			par:        2 + 6*rng.Float64(),
			contention: 0.8 * rng.Float64(),
		}
	}
	return plans
}

// Call kinds, in the order their latencies are kept.
const (
	kSubmit = iota
	kContact
	kResizeComplete
	kJobEnd
	kStatus
	nKinds
)

var kindNames = [nKinds]string{"submit", "contact", "resize_complete", "job_end", "status"}

// callLog is one worker's record of its calls.
type callLog struct {
	lat      [nKinds][]float64 // µs
	ops      int
	failed   int
	contacts int
	grants   int
	acked    []int // job ids whose job-end was acknowledged
	firstErr error
}

func (l *callLog) merge(o *callLog) {
	for k := range l.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
	}
	l.ops += o.ops
	l.failed += o.failed
	l.contacts += o.contacts
	l.grants += o.grants
	l.acked = append(l.acked, o.acked...)
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *callLog) all() []float64 {
	var xs []float64
	for _, k := range l.lat {
		xs = append(xs, k...)
	}
	return xs
}

// jobRunner runs job scripts against any resize.Scheduler: the v2 client for
// the timed wire phase, or *scheduler.Server directly for the traced
// run's in-process replay of the same script.
type jobRunner struct {
	s           resize.Scheduler
	statusEvery int
	tr          *tracer // nil = untraced
	// jobTrace maps a job id to its trace id (the plan index) so the
	// journal hook can attribute Append calls; written before the job's
	// first non-submit call, which is what the hook sees.
	jobTrace sync.Map
}

func (jr *jobRunner) call(l *callLog, kind int, trace int64, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	l.lat[kind] = append(l.lat[kind], us(t1.Sub(t0)))
	l.ops++
	if jr.tr != nil {
		jr.tr.add("reshape."+kindNames[kind], trace, 0, int64(t0.Sub(jr.tr.epoch)), int64(t1.Sub(jr.tr.epoch)))
	}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	return err
}

func (jr *jobRunner) job(ctx context.Context, l *callLog, p *jobPlan, idx int) {
	trace := int64(idx)
	var id int
	if jr.call(l, kSubmit, trace, func() (err error) { id, err = jr.s.Submit(ctx, p.spec); return err }) != nil {
		return
	}
	if jr.tr != nil {
		jr.jobTrace.Store(id, trace)
	}
	topo := p.spec.InitialTopo
	for c := 0; c < p.contacts; c++ {
		var dec scheduler.Decision
		if jr.call(l, kContact, trace, func() (err error) {
			dec, err = jr.s.Contact(ctx, id, topo, p.iterTime(topo), 0.01)
			return err
		}) != nil {
			return
		}
		l.contacts++
		if dec.Action == scheduler.ActionExpand || dec.Action == scheduler.ActionShrink {
			l.grants++
			topo = dec.Target
			if jr.call(l, kResizeComplete, trace, func() error { return jr.s.ResizeComplete(ctx, id, 0.01) }) != nil {
				return
			}
		}
	}
	if jr.call(l, kJobEnd, trace, func() error { return jr.s.JobEnd(ctx, id) }) != nil {
		return
	}
	l.acked = append(l.acked, id)
	if jr.statusEvery > 0 && idx%jr.statusEvery == 0 {
		jr.call(l, kStatus, trace, func() error { _, err := jr.s.Status(ctx); return err })
	}
}

// round drives plans[lo:hi] with depth closed-loop workers and returns
// the merged log and the round's wall time.
func (jr *jobRunner) round(ctx context.Context, plans []jobPlan, lo, hi, depth int) (*callLog, time.Duration) {
	logs := make([]callLog, depth)
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(l *callLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				jr.job(ctx, l, &plans[i], i)
			}
		}(&logs[w])
	}
	wg.Wait()
	wall := time.Since(start)
	out := &callLog{}
	for i := range logs {
		out.merge(&logs[i])
	}
	return out, wall
}

// ctlServer is one running control plane: scheduler.Server (optionally
// journaled to a durability.Store) behind rpc.Serve, and the client.
type ctlServer struct {
	dir    string
	core   *scheduler.Core
	srv    *scheduler.Server
	store  *durability.Store
	rpcSrv *rpc.Server
	client *reshape.Client

	// Traced-run hooks: spans are recorded only while tracing is set.
	tr       *tracer
	runner   *jobRunner
	tracing  atomic.Bool
	captures atomic.Int64
	recovery time.Duration // Open + Restore
	// appendTrace is the trace id of the Append in progress, read by the
	// Capture it may trigger; both run under Server.mu.
	appendTrace int64
}

func storeOptions(spec ctlSpec, capture func() (*scheduler.CoreState, uint64)) durability.Options {
	return durability.Options{SnapshotEvery: snapshotEvery, Sync: spec.sync, Capture: capture}
}

func newCore(spec ctlSpec) *scheduler.Core {
	c := scheduler.NewCoreSharded(spec.procs, scheduler.DefaultShards(spec.procs), true)
	if spec.weights != nil {
		c.SetArbiter(fairshare.New(spec.weights))
	}
	return c
}

// openScheduler builds the scheduler.Server, recovering from dir when the
// workload is durable. With tr set, Append and Capture are wrapped in
// timing spans (traced run only).
func openScheduler(spec ctlSpec, dir string, tr *tracer) (*ctlServer, error) {
	cs := &ctlServer{dir: dir, tr: tr}
	if !spec.durable {
		cs.core = newCore(spec)
		cs.srv = scheduler.NewServerCore(cs.core, nil)
		return cs, nil
	}
	// Untraced runs install the daemon's own Capture; the traced run's
	// counts snapshots and times each one while tracing is set.
	capture := func() (*scheduler.CoreState, uint64) { return cs.core.PersistState(), cs.srv.Seq() }
	if tr != nil {
		capture = func() (*scheduler.CoreState, uint64) {
			cs.captures.Add(1)
			if !cs.tracing.Load() {
				return cs.core.PersistState(), cs.srv.Seq()
			}
			t0 := tr.now()
			st, seq := cs.core.PersistState(), cs.srv.Seq()
			tr.add("durability.capture", cs.appendTrace, 0, t0, tr.now())
			return st, seq
		}
	}
	t0 := time.Now()
	store, rec, err := durability.Open(dir, storeOptions(spec, capture))
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	core, info, err := rec.Restore(func(st *scheduler.CoreState) (*scheduler.Core, error) {
		if st == nil {
			return newCore(spec), nil
		}
		return scheduler.NewCoreFromState(st)
	})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("recover wal: %w", err)
	}
	cs.recovery = time.Since(t0)
	cs.core, cs.store = core, store
	if tr == nil {
		core.SetJournal(store.Append)
	} else {
		core.SetJournal(cs.tracedAppend)
	}
	cs.srv = scheduler.NewServerRecovered(core, info.Seq, info.Clock, nil)
	return cs, nil
}

// tracedAppend is the traced run's journal hook: Store.Append inside a
// span attributed to the job's trace. An Append during which a snapshot
// was captured is named durability.snapshot.
func (cs *ctlServer) tracedAppend(op scheduler.Op) error {
	if !cs.tracing.Load() {
		return cs.store.Append(op)
	}
	var trace int64 = -1
	if op.Kind == scheduler.OpSubmit {
		if n, perr := strconv.Atoi(op.Spec.Name[1:]); perr == nil && op.Spec.Name[0] == 'j' {
			trace = int64(n)
		}
	} else if v, ok := cs.runner.jobTrace.Load(op.JobID); ok {
		trace = v.(int64)
	}
	cs.appendTrace = trace
	before := cs.captures.Load()
	t0 := cs.tr.now()
	err := cs.store.Append(op)
	t1 := cs.tr.now()
	name := "durability.append"
	if cs.captures.Load() != before {
		name = "durability.snapshot"
	}
	cs.tr.add(name, trace, 0, t0, t1)
	return err
}

func (cs *ctlServer) serve(spec ctlSpec) error {
	rpcSrv, err := rpc.Serve("127.0.0.1:0", cs.srv, rpc.WithLimits(spec.limits))
	if err != nil {
		return err
	}
	cs.rpcSrv = rpcSrv
	cl, err := reshape.Dial(rpcSrv.Addr(), reshape.WithPoolSize(spec.conns))
	if err != nil {
		return err
	}
	cs.client = cl
	// Dial opens the first pooled connection; the rest open lazily on
	// first use. Concurrent first uses of one empty slot each dial and the
	// loser is discarded, so the pool is filled by sequential reads here
	// and reshape.dials then counts reconnects only.
	for i := 1; i < spec.conns; i++ {
		if _, err := cl.Status(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// close shuts the control plane down; calling it again is a no-op.
func (cs *ctlServer) close() error {
	var first error
	if cs.client != nil {
		cs.client.Close()
		cs.client = nil
	}
	if cs.rpcSrv != nil {
		first = cs.rpcSrv.Close()
		cs.rpcSrv = nil
	}
	if cs.store != nil {
		if err := cs.store.Close(); err != nil && first == nil {
			first = err
		}
		cs.store = nil
	}
	return first
}

// buildSeededWAL writes the ctl-durable restart history: jobs complete
// jobs derived from the seed, driven one at a time in-process into a fresh
// WAL directory (so the record order is the seed's too), leaving a
// snapshot plus a journal tail for set-up to replay. It returns the number
// of journaled records.
func buildSeededWAL(dir string, seed int64, jobs int) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	// Seeding is not timed, so fsync is skipped; the records are identical.
	var core *scheduler.Core
	var srv *scheduler.Server
	store, rec, err := durability.Open(dir, durability.Options{
		SnapshotEvery: snapshotEvery, Sync: durability.SyncNone,
		Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), srv.Seq() },
	})
	if err != nil {
		return 0, err
	}
	core, info, err := rec.Restore(func(*scheduler.CoreState) (*scheduler.Core, error) { return newCore(ctlDurable), nil })
	if err != nil {
		store.Close()
		return 0, err
	}
	core.SetJournal(store.Append)
	srv = scheduler.NewServerRecovered(core, info.Seq, info.Clock, nil)
	d := &jobRunner{s: srv}
	plans := planJobs(seed^0x5eed, "h", jobs, nil)
	l, _ := d.round(context.Background(), plans, 0, len(plans), 1)
	n := store.Index()
	if err := store.Close(); err != nil {
		return 0, err
	}
	if l.failed > 0 {
		return 0, fmt.Errorf("seeding history: %d failed calls: %v", l.failed, l.firstErr)
	}
	return n, nil
}

// copyDir copies a WAL directory and makes the copy durable, so the
// recovery that follows is not charged with flushing it: the store's own
// fsyncs commit the file system journal, which writes back dirty data.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// watcher consumes one AllJobs watch stream beside the writes and counts
// events lost to consumer lag or sequence gaps.
type watcher struct {
	sub     *scheduler.Subscription
	lastSeq atomic.Uint64
	gaps    atomic.Int64
	done    chan struct{}
}

func startWatch(ctx context.Context, cl *reshape.Client) (*watcher, error) {
	sub, err := cl.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		return nil, err
	}
	w := &watcher{sub: sub, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var last uint64
		for ev := range sub.C {
			if last != 0 && ev.Seq != last+1 {
				w.gaps.Add(1)
			}
			last = ev.Seq
			w.lastSeq.Store(last)
		}
	}()
	return w, nil
}

// drain waits until the stream has delivered event seq, then ends it.
func (w *watcher) drain(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for w.lastSeq.Load() < seq {
		if time.Now().After(deadline) {
			w.sub.Cancel()
			<-w.done
			return fmt.Errorf("watch stream stopped at seq %d, want %d", w.lastSeq.Load(), seq)
		}
		time.Sleep(time.Millisecond)
	}
	w.sub.Cancel()
	<-w.done
	return nil
}

func (w *watcher) dropped() int64 { return int64(w.sub.Dropped()) + w.gaps.Load() }

// setUp brings up one control plane and runs the fixed warm-up; the
// returned duration is setup_s's sample.
func setUp(ctx context.Context, spec ctlSpec, seededDir, dir string, seed int64, tr *tracer) (*ctlServer, *watcher, time.Duration, error) {
	if spec.durable {
		if err := copyDir(seededDir, dir); err != nil {
			return nil, nil, 0, err
		}
	}
	start := time.Now()
	cs, err := openScheduler(spec, dir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := cs.serve(spec); err != nil {
		cs.close()
		return nil, nil, 0, err
	}
	var w *watcher
	if spec.watch {
		if w, err = startWatch(ctx, cs.client); err != nil {
			cs.close()
			return nil, nil, 0, err
		}
	}
	cs.runner = &jobRunner{s: cs.client, statusEvery: spec.statusEvery}
	warm := planJobs(seed^0x3a3a, "w", spec.warmupJobs, spec.tenants)
	l, _ := cs.runner.round(ctx, warm, 0, len(warm), spec.depth)
	if l.failed > 0 {
		cs.close()
		return nil, nil, 0, fmt.Errorf("warm-up: %d failed calls: %v", l.failed, l.firstErr)
	}
	return cs, w, time.Since(start), nil
}

func runCtl(cfg runConfig, spec ctlSpec) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	jobs := scaled(spec.jobsPerSecond*cfg.seconds, cfg.scale, 4*spec.depth)
	roundJobs := scaled(spec.roundJobs, cfg.scale, 2*spec.depth)
	if spec.statusEvery > 0 && roundJobs < spec.statusEvery {
		roundJobs = spec.statusEvery
	}
	// At least two rounds, so a traced run has an untraced round too.
	jobs = max(jobs, 2*roundJobs)
	spec.warmupJobs = scaled(spec.warmupJobs, cfg.scale, spec.depth)
	spec.setupReps = scaled(spec.setupReps, cfg.scale, 2)

	seededDir := filepath.Join(cfg.workdir, "seeded")
	var seededRecords uint64
	if spec.durable {
		var err error
		seededRecords, err = buildSeededWAL(seededDir, cfg.seed, scaled(spec.seededJobs, cfg.scale, 50))
		if err != nil {
			return nil, fmt.Errorf("seed wal: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: seeded WAL holds %d jobs, %d records\n",
			scaled(spec.seededJobs, cfg.scale, 50), seededRecords)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Set-up is repeated and the median reported; the last instance runs
	// the timed phase.
	var (
		cs       *ctlServer
		w        *watcher
		setups   []float64
		recovers []float64
	)
	for r := 0; r < spec.setupReps; r++ {
		if cs != nil {
			if w != nil {
				w.sub.Cancel()
				<-w.done
			}
			if err := cs.close(); err != nil {
				return nil, err
			}
		}
		// Every set-up starts from a collected heap, so the previous
		// instance's garbage is not charged to it.
		runtime.GC()
		var d time.Duration
		var err error
		cs, w, d, err = setUp(ctx, spec, seededDir, filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d", r)), cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		recovers = append(recovers, ms(cs.recovery))
	}
	defer cs.close()
	o.e2e["setup_s"] = median(setups)
	o.layers["durability.recover_ms"] = median(recovers)

	// Timed phase: fixed job count in fixed-size rounds. In the traced
	// run, odd rounds record spans and even rounds do not, so drift and
	// history growth hit both halves alike and the difference between
	// them is the tracing overhead.
	plans := planJobs(cfg.seed, "j", jobs, spec.tenants)
	untraced, all := &callLog{}, &callLog{}
	var rs roundStats
	var tracedWall, untracedWall []float64
	captures0 := cs.captures.Load()
	u0 := sampleUsage()
	for lo, r := 0, 0; lo < jobs; lo, r = lo+roundJobs, r+1 {
		hi := min(lo+roundJobs, jobs)
		traced := cfg.trace && r%2 == 1
		if cfg.trace {
			cs.tracing.Store(traced)
			cs.runner.tr = nil
			if traced {
				cs.runner.tr = tr
			}
		}
		c0 := cpuTime()
		l, wall := cs.runner.round(ctx, plans, lo, hi, spec.depth)
		cpu := cpuTime() - c0
		if traced {
			tracedWall = append(tracedWall, wall.Seconds())
		} else {
			untracedWall = append(untracedWall, wall.Seconds())
			untraced.merge(l)
			lat := l.all()
			for i := range lat {
				lat[i] /= 1e3
			}
			rs.add(l.ops, wall, cpu, lat)
		}
		all.merge(l)
	}
	p := u0.until(sampleUsage())
	cs.tracing.Store(false)
	snapshots := cs.captures.Load() - captures0

	o.attempted = all.ops
	o.failed = all.failed
	if all.failed > 0 {
		o.checks = append(o.checks, fmt.Errorf("%d failed calls, first: %v", all.failed, all.firstErr))
	}
	rs.report(o)
	o.common(p, all.ops)

	// Correctness, outside the timed phase.
	stats := cs.rpcSrv.Stats()
	st, err := cs.client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("final status: %w", err)
	}
	o.check(checkAllDone(st, all.acked))
	o.check(checkZero("shed requests", stats.Shed))
	o.check(checkZero("malformed requests", stats.Malformed))
	var dropped int64
	if w != nil {
		o.check(w.drain(cs.srv.Seq(), 10*time.Second))
		dropped = w.dropped()
		o.check(checkZero("dropped watch events", uint64(dropped)))
	}
	dials := cs.client.Dials()
	o.check(checkDials(dials, spec.conns))
	wantJobs := len(st.Jobs)
	if err := cs.close(); err != nil {
		return nil, err
	}
	if spec.durable {
		o.check(checkReopen(cs.dir, spec, wantJobs))
	}

	o.layers["reshape.dials"] = float64(dials)
	o.layers["rpc.shed"] = float64(stats.Shed)
	o.layers["rpc.malformed"] = float64(stats.Malformed)
	o.layers["watch.dropped"] = float64(dropped)
	if all.contacts > 0 {
		o.layers["scheduler.grant_ratio"] = float64(all.grants) / float64(all.contacts)
	}
	if spec.durable {
		o.layers["durability.snapshots"] = float64(snapshots)
	}
	if !cfg.trace {
		return o, nil
	}

	for k := 0; k < nKinds; k++ {
		o.layers["reshape."+kindNames[k]+"_us"] = percentile(untraced.lat[k], 50)
	}
	o.layers["trace.overhead_pct"] = overheadPct(tracedWall, untracedWall)
	layerSpans(o, tr, spec, sum(tracedWall))

	// In-process replay: the same op script against scheduler.Server
	// directly, so wire cost = wire latency − in-process latency.
	inproc, err := replayInProcess(ctx, cfg, spec, seededDir, plans, roundJobs)
	if err != nil {
		return nil, err
	}
	for k := 0; k < nKinds; k++ {
		o.layers["scheduler."+kindNames[k]+"_us"] = percentile(inproc.lat[k], 50)
	}
	o.layers["rpc.self_us_per_op"] = mean(untraced.all()) - mean(inproc.all())
	o.spans = tr
	return o, nil
}

// layerSpans derives the traced metrics of the journal and the trace's
// coverage: client spans parent the Append spans recorded server side.
func layerSpans(o *outcome, tr *tracer, spec ctlSpec, tracedWall float64) {
	tr.adopt("durability.append", clientSpanNames()...)
	tr.adopt("durability.snapshot", clientSpanNames()...)
	tr.adopt("durability.capture", "durability.snapshot")
	var appends, snaps []float64
	var client float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		d := float64(s.End-s.Start) / 1e3 // µs
		switch s.Name {
		case "durability.append":
			appends = append(appends, d)
		case "durability.snapshot":
			snaps = append(snaps, d/1e3)
		default:
			if len(s.Name) > 8 && s.Name[:8] == "reshape." {
				client += d
			}
		}
	}
	tr.mu.Unlock()
	total := sum(appends) + 1e3*sum(snaps)
	if spec.durable {
		o.layers["durability.append_us"] = percentile(appends, 50)
		o.layers["durability.append_tail_us"] = percentile(appends, tailPct)
		o.layers["durability.snapshot_ms"] = median(snaps)
		if client > 0 {
			o.layers["durability.append_share"] = total / client
		}
	}
	// Every layer's self time sums to the client call time (Append spans
	// nest inside client spans); coverage compares it with the time the
	// closed-loop workers were running.
	self := 0.0
	for _, d := range tr.selfTimes() {
		self += d.Seconds()
	}
	if tracedWall > 0 {
		o.layers["trace.coverage"] = self / (float64(spec.depth) * tracedWall)
	}
}

func clientSpanNames() []string {
	names := make([]string, nKinds)
	for k := range names {
		names[k] = "reshape." + kindNames[k]
	}
	return names
}

// replayInProcess runs the timed phase's job script against a fresh
// scheduler.Server of the same configuration (recovered from the same
// seeded WAL when durable), with the same closed-loop depth.
func replayInProcess(ctx context.Context, cfg runConfig, spec ctlSpec, seededDir string, plans []jobPlan, roundJobs int) (*callLog, error) {
	dir := filepath.Join(cfg.workdir, "wal-inproc")
	if spec.durable {
		if err := copyDir(seededDir, dir); err != nil {
			return nil, err
		}
	}
	cs, err := openScheduler(spec, dir, nil)
	if err != nil {
		return nil, err
	}
	defer cs.close()
	d := &jobRunner{s: cs.srv, statusEvery: spec.statusEvery}
	warm := planJobs(cfg.seed^0x3a3a, "w", spec.warmupJobs, spec.tenants)
	if l, _ := d.round(ctx, warm, 0, len(warm), spec.depth); l.failed > 0 {
		return nil, fmt.Errorf("in-process warm-up: %d failed calls: %v", l.failed, l.firstErr)
	}
	out := &callLog{}
	for lo := 0; lo < len(plans); lo += roundJobs {
		l, _ := d.round(ctx, plans, lo, min(lo+roundJobs, len(plans)), spec.depth)
		out.merge(l)
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("in-process replay: %d failed calls: %v", out.failed, out.firstErr)
	}
	return out, nil
}

// checkAllDone verifies every acknowledged job ends Done in Status.
func checkAllDone(st scheduler.ClusterStatus, acked []int) error {
	state := make(map[int]string, len(st.Jobs))
	for _, j := range st.Jobs {
		state[j.ID] = j.State
	}
	bad := 0
	for _, id := range acked {
		if state[id] != scheduler.Done.String() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d acknowledged jobs are not Done in Status", bad, len(acked))
	}
	return nil
}

func checkZero(what string, n uint64) error {
	if n != 0 {
		return fmt.Errorf("%d %s", n, what)
	}
	return nil
}

func checkDials(dials, conns int) error {
	if dials != conns {
		return fmt.Errorf("client dialed %d connections, want %d (one per connection)", dials, conns)
	}
	return nil
}

// checkReopen reopens the WAL after the run: it must recover the same job
// count and report no torn tail.
func checkReopen(dir string, spec ctlSpec, wantJobs int) error {
	store, rec, err := durability.Open(dir, storeOptions(spec, nil))
	if err != nil {
		return fmt.Errorf("reopen wal: %w", err)
	}
	defer store.Close()
	if rec.TornTail {
		return fmt.Errorf("reopened wal reports a torn tail")
	}
	_, info, err := rec.Restore(func(st *scheduler.CoreState) (*scheduler.Core, error) {
		if st == nil {
			return newCore(spec), nil
		}
		return scheduler.NewCoreFromState(st)
	})
	if err != nil {
		return fmt.Errorf("recover reopened wal: %w", err)
	}
	if info.Jobs != wantJobs {
		return fmt.Errorf("reopened wal recovered %d jobs, want %d", info.Jobs, wantJobs)
	}
	return nil
}
