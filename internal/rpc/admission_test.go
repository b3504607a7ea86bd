package rpc_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func admSpec(name, tenant string) scheduler.JobSpec {
	start := grid.Topology{Rows: 2, Cols: 2}
	return scheduler.JobSpec{
		Name: name, App: "lu", ProblemSize: 8000, Iterations: 10,
		Tenant: tenant, InitialTopo: start, Chain: []grid.Topology{start},
	}
}

// TestTenantSurvivesBothWireProtocols pins the tenant threading end to
// end: jobs submitted by two clients with different client-level tenant
// identities reach the scheduler tagged, and Status reports both the
// per-job Tenant and the per-tenant usage rollup. (Both clients speak
// rpc/v2; the name is kept from when they spoke different protocols.)
func TestTenantSurvivesBothWireProtocols(t *testing.T) {
	srv, acme := serveAndDial(t, scheduler.NewServer(16, false, nil), reshape.WithTenant("acme"))
	beta, err := reshape.Dial(srv.Addr(), reshape.WithTenant("beta"))
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()

	ctx := context.Background()
	// Spec-level tenant wins; the client identity fills in when unset.
	aID, err := acme.Submit(ctx, admSpec("a", ""))
	if err != nil {
		t.Fatal(err)
	}
	bID, err := beta.Submit(ctx, admSpec("b", ""))
	if err != nil {
		t.Fatal(err)
	}
	cID, err := beta.Submit(ctx, admSpec("c", "gamma"))
	if err != nil {
		t.Fatal(err)
	}

	st, err := acme.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{aID: "acme", bID: "beta", cID: "gamma"}
	for _, j := range st.Jobs {
		if j.Tenant != want[j.ID] {
			t.Errorf("job %d tenant %q, want %q", j.ID, j.Tenant, want[j.ID])
		}
	}
	if len(st.Tenants) != 3 {
		t.Fatalf("tenant rollup %+v, want 3 rows", st.Tenants)
	}
	// Rows are sorted by tenant name; all three jobs run (16 procs, 4 each).
	for i, name := range []string{"acme", "beta", "gamma"} {
		u := st.Tenants[i]
		if u.Tenant != name || u.Running != 1 || u.Procs != 4 || u.Queued != 0 {
			t.Errorf("rollup[%d] = %+v, want tenant %q running 1 procs 4", i, u, name)
		}
	}
}

// TestAdmissionShedsOverQuotaTenant: a tenant exhausting its token bucket
// gets typed overload errors, counted in Stats.Shed, while another
// tenant's requests keep flowing.
func TestAdmissionShedsOverQuotaTenant(t *testing.T) {
	sched := scheduler.NewServer(64, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched,
		rpc.WithLimits(rpc.Limits{TenantRate: 0.001, TenantBurst: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	noisy, err := reshape.Dial(srv.Addr(), reshape.WithTenant("noisy"))
	if err != nil {
		t.Fatal(err)
	}
	defer noisy.Close()

	ctx := context.Background()
	var shed int
	for i := 0; i < 6; i++ {
		_, err := noisy.Status(ctx)
		if errors.Is(err, rpc.ErrOverload) {
			shed++
		} else if err != nil {
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if shed != 4 {
		t.Fatalf("shed %d of 6 requests, want 4 (burst 2)", shed)
	}
	if got := srv.Stats().Shed; got != 4 {
		t.Fatalf("Stats.Shed = %d, want 4", got)
	}

	// The noisy tenant's exhaustion must not touch another tenant.
	calm, err := reshape.Dial(srv.Addr(), reshape.WithTenant("calm"))
	if err != nil {
		t.Fatal(err)
	}
	defer calm.Close()
	if _, err := calm.Status(ctx); err != nil {
		t.Fatalf("calm tenant shed alongside the noisy one: %v", err)
	}
}

// TestAdmissionInflightCap: a blocking Wait holds the tenant's single
// inflight slot, shedding its further requests while other tenants are
// untouched; the slot frees when the wait resolves.
//
// The server frees a request's slot just after writing its reply, so a
// tenant's next request can briefly find the slot still taken. The test
// therefore makes the Wait the busy tenant's first request (the job is
// submitted in process) and sends the shed probe only once the server has
// admitted the Wait.
func TestAdmissionInflightCap(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched,
		rpc.WithLimits(rpc.Limits{TenantInflight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	id, err := sched.Submit(ctx, admSpec("hog", ""))
	if err != nil {
		t.Fatal(err)
	}
	busy, err := reshape.Dial(srv.Addr(), reshape.WithTenant("busy"))
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	waitErr := make(chan error, 1)
	go func() { waitErr <- busy.Wait(ctx, id) }()

	// Stats.Requests counts the Wait once it is admitted; from then until
	// the job ends it holds the tenant's only slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Requests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wait never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := busy.Status(ctx); !errors.Is(err, rpc.ErrOverload) {
		t.Fatalf("busy tenant's Status beside its parked Wait = %v, want ErrOverload", err)
	}
	other, err := reshape.Dial(srv.Addr(), reshape.WithTenant("other"))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Status(ctx); err != nil {
		t.Fatalf("other tenant shed by busy tenant's inflight cap: %v", err)
	}

	// Ending the job resolves the wait and frees the slot.
	if err := sched.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := <-waitErr; err != nil {
		t.Fatalf("wait: %v", err)
	}
	for {
		if _, err := busy.Status(ctx); err == nil {
			return // slot freed
		}
		if time.Now().After(deadline) {
			t.Fatal("inflight slot never freed after the wait resolved")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionConnQuota: the per-connection bucket clips a flooding
// connection regardless of the tenants its frames claim.
func TestAdmissionConnQuota(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched,
		rpc.WithLimits(rpc.Limits{ConnRate: 0.001, ConnBurst: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{rpc.MagicV2}); err != nil {
		t.Fatal(err)
	}
	fw := rpc.NewFrameWriter(nc)
	fr := rpc.NewFrameReader(bufio.NewReader(nc))

	tenants := []string{"t1", "t2", "t3", "t4", "t5"}
	for i, tenant := range tenants {
		if err := fw.Write(rpc.Frame{ID: uint64(i + 1), Op: rpc.OpStatus, Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	codes := map[string]int{}
	for range tenants {
		var r rpc.Reply
		if err := fr.Read(&r); err != nil {
			t.Fatal(err)
		}
		codes[r.Code]++
	}
	if codes[rpc.CodeOverload] != 3 || codes[""] != 2 {
		t.Fatalf("reply codes %v, want 2 ok + 3 overload (burst 2)", codes)
	}
}
