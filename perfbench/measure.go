package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tailPct is the tail percentile reported as latency_tail_ms. p99 does not
// repeat on this class of machine (eight identical durable runs gave
// 0.70–1.23 ms) while p90 held within a tenth, and every workload's
// timed phase leaves far more than ten samples beyond p90.
const tailPct = 90

// percentile returns the nearest-rank q-th percentile of xs (0 for none).
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// scaled sizes a piece of fixed work: n units at full scale, at least min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		return min
	}
	return v
}

// procIO is the process's /proc/self/io accounting: exact syscall counts
// and the bytes the process caused to be written to the block device.
type procIO struct{ syscr, syscw, writeBytes int64 }

func readProcIO() procIO {
	var p procIO
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return p
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		case "write_bytes":
			p.writeBytes = n
		}
	}
	return p
}

// usage is one sample of the process counters a timed phase is charged
// with.
type usage struct {
	io      procIO
	alloc   uint64 // cumulative heap bytes allocated
	gc      uint32
	maxRSSK int64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		io:      readProcIO(),
		alloc:   ms.TotalAlloc,
		gc:      ms.NumGC,
		maxRSSK: ru.Maxrss,
	}
}

// phase is the difference between two usage samples.
type phase struct {
	syscr      int64
	syscw      int64
	writeBytes int64
	alloc      uint64
	gc         uint32
	peakRSSMB  float64
}

func (a usage) until(b usage) phase {
	return phase{
		syscr:      b.io.syscr - a.io.syscr,
		syscw:      b.io.syscw - a.io.syscw,
		writeBytes: b.io.writeBytes - a.io.writeBytes,
		alloc:      b.alloc - a.alloc,
		gc:         b.gc - a.gc,
		peakRSSMB:  float64(b.maxRSSK) / 1024,
	}
}

// common fills the metrics every workload derives the same way from its
// whole timed phase: peak RSS and, for the traced run, the OS and Go
// runtime counters.
func (o *outcome) common(p phase, ops int) {
	n := float64(ops)
	o.e2e["peak_rss_mb"] = p.peakRSSMB
	o.layers["os.write_syscalls_per_op"] = float64(p.syscw) / n
	o.layers["os.read_syscalls_per_op"] = float64(p.syscr) / n
	o.layers["durability.device_bytes_per_op"] = float64(p.writeBytes) / n
	o.layers["go.alloc_bytes_per_op"] = float64(p.alloc) / n
	o.layers["go.gc_cycles"] = float64(p.gc)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundStats keeps one value per round of the timed end-to-end metrics.
// Each is reported as its median over rounds, so a slow stretch of a
// shared machine that spoils fewer than half the rounds does not move it.
type roundStats struct{ tput, p50, tail, cpu []float64 }

// add records one round: work units done in wall time using cpu, and the
// round's request latencies in ms (nil when the round has none).
func (r *roundStats) add(work int, wall, cpu time.Duration, latMs []float64) {
	r.tput = append(r.tput, float64(work)/wall.Seconds())
	r.cpu = append(r.cpu, us(cpu)/float64(work))
	if latMs != nil {
		r.p50 = append(r.p50, percentile(latMs, 50))
		r.tail = append(r.tail, percentile(latMs, tailPct))
	}
}

func (r *roundStats) report(o *outcome) {
	o.e2e["throughput"] = median(r.tput)
	o.e2e["cpu_us_per_op"] = median(r.cpu)
	o.e2e["latency_p50_ms"] = median(r.p50)
	o.e2e["latency_tail_ms"] = median(r.tail)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// span is one traced call into a layer. Trace groups the spans of one
// request (the job index on ctl-*, the round elsewhere); Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, trace, parent, start, end int64) int64 {
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// adopt sets the parent of every span named child (recorded on another
// goroutine, e.g. server side) to the span of the same trace named one of
// parents whose interval contains it.
func (t *tracer) adopt(child string, parents ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	isParent := map[string]bool{}
	for _, p := range parents {
		isParent[p] = true
	}
	byTrace := map[int64][]int{}
	for i, s := range t.spans {
		if isParent[s.Name] {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		for _, pi := range byTrace[c.Trace] {
			p := t.spans[pi]
			if p.Start <= c.Start && c.End <= p.End {
				c.Parent = p.ID
				break
			}
		}
	}
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by direct children.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	idx := make(map[int64]int, len(t.spans))
	for i, s := range t.spans {
		idx[s.ID] = i
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		if pi, ok := idx[s.Parent]; ok {
			out[t.spans[pi].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPct is how much slower the traced rounds ran than the untraced
// ones, as a percentage of the untraced median round time.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (median(traced) - u) / u
}
