package rpc_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

// serveAndDial starts a daemon around sched and dials it with the typed
// client; both are torn down when the test ends.
func serveAndDial(t *testing.T, sched *scheduler.Server, opts ...reshape.Option) (*rpc.Server, *reshape.Client) {
	t.Helper()
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := reshape.Dial(srv.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestRoundTripOverTCP(t *testing.T) {
	ctx := context.Background()
	srv, cl := serveAndDial(t, scheduler.NewServer(8, true, nil))

	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 10,
		InitialTopo: topo(1, 2),
		Chain:       grid.GrowthChain(topo(1, 2), 12000, 8),
	})
	if err != nil {
		t.Fatal(err)
	}

	d, err := cl.Contact(ctx, id, topo(1, 2), 129.63, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != scheduler.ActionExpand || d.Target != topo(2, 2) {
		t.Fatalf("decision %+v", d)
	}
	if err := cl.ResizeComplete(ctx, id, 8.0); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 || st.Free != 4 {
		t.Fatalf("status total/free = %d/%d", st.Total, st.Free)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != "running" {
		t.Fatalf("jobs %+v", st.Jobs)
	}

	if err := cl.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Free != 8 {
		t.Fatalf("free = %d after end", st.Free)
	}
	if s := srv.Stats(); s.V2Conns != 1 || s.Requests != 6 {
		t.Fatalf("stats not counting traffic: %+v", s)
	}
}

func TestServerReportsErrors(t *testing.T) {
	ctx := context.Background()
	_, cl := serveAndDial(t, scheduler.NewServer(4, false, nil))

	if _, err := cl.Contact(ctx, 99, topo(1, 1), 1, 0); err == nil {
		t.Error("contact for unknown job should fail")
	}
	if _, err := cl.Submit(ctx, scheduler.JobSpec{Name: "big", InitialTopo: topo(4, 4)}); err == nil {
		t.Error("oversized job should fail")
	}
}

// TestClientDialFailure: dialing a port nobody listens on fails at Dial,
// not at the first call.
func TestClientDialFailure(t *testing.T) {
	cl, err := reshape.Dial("127.0.0.1:1", reshape.WithDialTimeout(200*time.Millisecond))
	if err == nil {
		cl.Close()
		t.Fatal("expected dial error")
	}
}

func TestClientHonoursContextDeadline(t *testing.T) {
	_, cl := serveAndDial(t, scheduler.NewServer(4, false, nil))
	id, err := cl.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := cl.Wait(ctx, id); err == nil {
		t.Fatal("Wait should fail when the deadline expires before JobEnd")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Wait ignored the deadline (took %v)", elapsed)
	}
}

func TestWaitBlocksUntilJobEnd(t *testing.T) {
	ctx := context.Background()
	_, cl := serveAndDial(t, scheduler.NewServer(4, false, nil))
	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Wait(ctx, id) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned before JobEnd")
	default:
	}
	if err := cl.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func TestRemoteSchedulerDrivesRealApp(t *testing.T) {
	// End-to-end over TCP: a real application resized by a remote daemon.
	ctx := context.Background()
	var cl *reshape.Client
	sched := scheduler.NewServer(4, true, func(j *scheduler.Job) {
		cfg := apps.Config{App: "lu", N: 8, NB: 2, Iterations: 3}
		if err := apps.Launch(cl, j.ID, j.Topo, cfg); err != nil {
			t.Errorf("launch: %v", err)
			_ = cl.JobEnd(ctx, j.ID)
		}
	})
	_, cl = serveAndDial(t, sched)

	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "lu", App: "lu", ProblemSize: 8, Iterations: 3,
		InitialTopo: topo(1, 2),
		Chain:       grid.GrowthChain(topo(1, 2), 8, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Free != 4 {
		t.Errorf("free = %d", st.Free)
	}
	if st.Jobs[0].State != "done" {
		t.Errorf("state %v", st.Jobs[0].State)
	}
}
