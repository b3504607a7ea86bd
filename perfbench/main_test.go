package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
	sdk "repro/pkg/reshape"
)

// smokeScale shrinks every workload's fixed work to a few rounds.
const smokeScale = 0.02

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, and checks that each run passes its correctness checks and
// emits every metric of its set with the right unit.
func TestSmokeEveryMetric(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 1, trace: trace, workdir: t.TempDir(), scale: smokeScale}
			o, err := fn(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			r := render(o, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d checks=%v",
					name, trace, r.Correct, r.Failed, r.Attempted, o.checks)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := r.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, m.Value)
				}
			}
			if trace && (o.spans == nil || o.spans.len() == 0) {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload catalogue in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestCheckArraysRejectsFlippedElement(t *testing.T) {
	const seed = 7
	arrays := make([][]float64, rtArrays)
	for k := range arrays {
		arrays[k] = make([]float64, rtDim*rtDim)
		f := rtFill(seed, k)
		for i := 0; i < rtDim; i++ {
			for j := 0; j < rtDim; j++ {
				arrays[k][i*rtDim+j] = f(i, j)
			}
		}
	}
	if err := checkArrays(seed, arrays); err != nil {
		t.Fatalf("intact arrays rejected: %v", err)
	}
	arrays[1][5*rtDim+9] = -arrays[1][5*rtDim+9]
	if checkArrays(seed, arrays) == nil {
		t.Fatal("flipped element accepted")
	}
	if checkArrays(seed, arrays[:1]) == nil {
		t.Fatal("missing array accepted")
	}
}

func TestCheckResizesRejectsWrongCount(t *testing.T) {
	if err := checkResizes(&sdk.Report{Resizes: 8}, 8); err != nil {
		t.Fatal(err)
	}
	if checkResizes(&sdk.Report{Resizes: 7}, 8) == nil {
		t.Fatal("short resize count accepted")
	}
}

func TestCheckAllDoneRejectsDroppedJob(t *testing.T) {
	st := scheduler.ClusterStatus{Jobs: []scheduler.JobInfo{
		{ID: 0, State: scheduler.Done.String()},
		{ID: 1, State: scheduler.Done.String()},
		{ID: 2, State: scheduler.Running.String()},
	}}
	if err := checkAllDone(st, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if checkAllDone(st, []int{0, 1, 2}) == nil {
		t.Fatal("running job accepted as done")
	}
	if checkAllDone(st, []int{0, 1, 3}) == nil {
		t.Fatal("job missing from Status accepted")
	}
}

func TestCheckSimRejectsDroppedJob(t *testing.T) {
	mix, err := workload.Generate(workload.GenConfig{Seed: 5, Jobs: 300, MeanInterarrival: simInterarrival, MaxProcs: simMaxProcs})
	if err != nil {
		t.Fatal(err)
	}
	params := perfmodel.SystemX()
	run := func() *simcluster.Result {
		res, err := newSim(params, mix, simCore()).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if err := checkSim(a, len(mix)); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(digest(b), digest(a)); err != nil {
		t.Fatalf("same seed, different digest: %v", err)
	}
	dropped := *a
	dropped.Jobs = dropped.Jobs[1:]
	if checkSim(&dropped, len(mix)) == nil {
		t.Fatal("dropped job accepted")
	}
	unfinished := *a
	unfinished.Jobs = append([]simcluster.JobResult(nil), a.Jobs...)
	unfinished.Jobs[3].End = 0
	if checkSim(&unfinished, len(mix)) == nil {
		t.Fatal("unfinished job accepted")
	}
	changed := digest(a)
	changed.makespan++
	if checkDigest(changed, digest(a)) == nil {
		t.Fatal("changed digest accepted")
	}
}

func TestCheckReopenRejectsLostJobsAndTornTail(t *testing.T) {
	dir := t.TempDir()
	if _, err := buildSeededWAL(dir, 1, 40); err != nil {
		t.Fatal(err)
	}
	if err := checkReopen(dir, ctlDurable, 40); err != nil {
		t.Fatalf("intact wal rejected: %v", err)
	}
	if checkReopen(dir, ctlDurable, 41) == nil {
		t.Fatal("wrong job count accepted")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if checkReopen(dir, ctlDurable, 40) == nil {
		t.Fatal("torn tail accepted")
	}
}

func TestCheckCounters(t *testing.T) {
	if checkZero("shed requests", 0) != nil || checkZero("shed requests", 1) == nil {
		t.Fatal("checkZero")
	}
	if checkDials(2, 2) != nil || checkDials(3, 2) == nil {
		t.Fatal("checkDials")
	}
}
