package rpc_test

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/scheduler"
)

// TestPrioritySurvivesBothWireProtocols pins the Priority threading of the
// arbitration layer end to end: JobSpecs submitted by two independent
// clients over the wire must reach the scheduler with their priority
// intact, order the wait queue by it, and report it back through each
// client's typed Status snapshot. (Both clients speak rpc/v2; the name is
// kept from when they spoke different protocols.)
func TestPrioritySurvivesBothWireProtocols(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, first := serveAndDial(t, sched)
	second, err := reshape.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	clients := map[string]*reshape.Client{"first": first, "second": second}

	ctx := context.Background()
	start := grid.Topology{Rows: 2, Cols: 2}
	spec := func(name string, prio int) scheduler.JobSpec {
		return scheduler.JobSpec{
			Name: name, App: "lu", ProblemSize: 8000, Iterations: 10,
			Priority: prio, InitialTopo: start,
			Chain: []grid.Topology{start},
		}
	}

	// The hog fills the pool so later submissions queue in priority order.
	if _, err := first.Submit(ctx, spec("hog", 0)); err != nil {
		t.Fatal(err)
	}
	lowID, err := first.Submit(ctx, spec("low-first", 1))
	if err != nil {
		t.Fatal(err)
	}
	highID, err := second.Submit(ctx, spec("high-second", 7))
	if err != nil {
		t.Fatal(err)
	}

	for name, cl := range clients {
		st, err := cl.Status(ctx)
		if err != nil {
			t.Fatalf("%s status: %v", name, err)
		}
		byID := map[int]scheduler.JobInfo{}
		for _, j := range st.Jobs {
			byID[j.ID] = j
		}
		if got := byID[lowID].Priority; got != 1 {
			t.Errorf("%s: job %d priority %d, want 1", name, lowID, got)
		}
		if got := byID[highID].Priority; got != 7 {
			t.Errorf("%s: job %d priority %d, want 7", name, highID, got)
		}
	}

	// Queue order follows priority: the core's head must be the high-prio
	// submission even though it arrived last.
	core := sched.Core()
	j, ok := core.Job(highID)
	if !ok || j.State != scheduler.Queued {
		t.Fatalf("high-priority job missing/queued? %v", ok)
	}
	started, err := core.Finish(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != highID {
		t.Fatalf("started %v, want the priority-7 job %d first", started, highID)
	}
}
