// Command perfbench is the repository benchmark. It drives the scheduler
// stack only through its public entry points and prints one JSON result
// line:
//
//	perfbench --workload ctl-durable --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	ctl-durable     reshape.Dial → rpc.Serve → scheduler.Server → durability.Store
//	ctl-tenants     the same wire path, volatile, fair share, reads beside writes
//	sched-sim       workload.Generate → simcluster.Sim.Run on a sharded Core
//	resize-runtime  pkg/reshape.Run + resize.ScriptedClient → resize/redistrib/mpi
//
// Every workload does a fixed amount of work derived from --seed and
// --seconds (never from measured timings), split into fixed-size rounds.
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// same work runs with spans recorded around every call into a layer and
// the per-layer metrics are printed instead. Spans are kept in memory and
// written to <workdir>/trace-<workload>-<seed>.jsonl when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = []metricSpec{
	{"reshape.submit_us", "us"},
	{"reshape.contact_us", "us"},
	{"reshape.resize_complete_us", "us"},
	{"reshape.job_end_us", "us"},
	{"reshape.status_us", "us"},
	{"reshape.dials", "count"},
	{"rpc.self_us_per_op", "us"},
	{"rpc.shed", "count"},
	{"rpc.malformed", "count"},
	{"watch.dropped", "count"},
	{"os.write_syscalls_per_op", "count"},
	{"os.read_syscalls_per_op", "count"},
	{"scheduler.submit_us", "us"},
	{"scheduler.contact_us", "us"},
	{"scheduler.resize_complete_us", "us"},
	{"scheduler.job_end_us", "us"},
	{"scheduler.status_us", "us"},
	{"scheduler.grant_ratio", "ratio"},
	{"scheduler.core_apply_ns_per_op", "ns"},
	{"durability.append_us", "us"},
	{"durability.append_tail_us", "us"},
	{"durability.append_share", "ratio"},
	{"durability.snapshots", "count"},
	{"durability.snapshot_ms", "ms"},
	{"durability.recover_ms", "ms"},
	{"durability.device_bytes_per_op", "B"},
	{"workload.generate_ms", "ms"},
	{"simcluster.self_ms", "ms"},
	{"simcluster.ops_per_job", "count"},
	{"resize.expand_stall_ms", "ms"},
	{"resize.shrink_stall_ms", "ms"},
	{"resize.overhead_ms", "ms"},
	{"redistrib.redist_ms", "ms"},
	{"redistrib.plan_build_us", "us"},
	{"redistrib.msgs_per_resize", "count"},
	{"redistrib.bytes_per_resize", "B-computed"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	workdir string // working directory inside the checkout
	// scale shrinks the fixed work (1 = full size); the smoke tests run
	// every workload at a tiny scale.
	scale float64
}

// outcome is a workload's raw result before it is rendered.
type outcome struct {
	attempted int
	failed    int
	checks    []error // correctness-check failures (each also counted in failed)
	e2e       map[string]float64
	layers    map[string]float64
	spans     *tracer
}

func (o *outcome) check(err error) {
	if err != nil {
		o.checks = append(o.checks, err)
		o.failed++
	}
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"ctl-durable":    runCtlDurable,
	"ctl-tenants":    runCtlTenants,
	"sched-sim":      runSchedSim,
	"resize-runtime": runResizeRuntime,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render turns an outcome into the printed result: the end-to-end set
// untraced, the per-layer set traced.
func render(o *outcome, trace bool) result {
	specs, vals := endToEnd, o.e2e
	if trace {
		specs, vals = perLayer, o.layers
	}
	r := result{
		Correct:   len(o.checks) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		r.Metrics[s.name] = metricValue{Value: vals[s.name], Unit: s.unit}
	}
	return r
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal run length; sizes the fixed work")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "working directory for WALs and trace files")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: dir, scale: 1}
	o, err := fn(cfg)
	rmErr := os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: clean up:", rmErr)
		os.Exit(1)
	}
	for _, c := range o.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	if cfg.trace && o.spans != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		if err := o.spans.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", o.spans.len(), path)
	}
	line, err := json.Marshal(render(o, cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
