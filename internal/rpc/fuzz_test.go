package rpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// encodeFrame renders f as the opening of a v2 client stream (type
// descriptors included, magic byte excluded).
func encodeFrame(t testing.TB, f Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := NewFrameWriter(&b).Write(f); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzV2Frames feeds arbitrary bytes after the MagicV2 handshake into a
// live server connection, then half-closes it. The server must not panic;
// it must answer every frame it decodes, count the frames it rejects
// (including a final unsynchronized one, after which it drops the
// connection) in Stats.Malformed, and hang up once the input is consumed.
// A fresh well-formed connection must still be served afterwards.
//
// A server that drops the connection with input still unread makes the
// kernel reset it, which can discard replies in flight; then only a lower
// bound on the rejected frames is visible to the client.
func FuzzV2Frames(f *testing.F) {
	submit := encodeFrame(f, Frame{ID: 1, Op: OpSubmit, Spec: scheduler.JobSpec{
		Name: "fz", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	}})
	f.Add(submit)
	f.Add(encodeFrame(f, Frame{ID: 0, Op: OpStatus}))
	f.Add(submit[:len(submit)-3])
	f.Add(append([]byte{0x04, 0xFF, 0xFF, 0xFF, 0xFF}, make([]byte, 64<<10)...))

	srv, err := Serve("127.0.0.1:0", scheduler.NewServer(4, false, nil))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		before := srv.Stats().Malformed
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, err = conn.Write(append([]byte{MagicV2}, data...))
		if err == nil {
			err = conn.(*net.TCPConn).CloseWrite()
		}
		// On loopback a failed write means the server already reset the
		// connection.
		reset := err != nil
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		fr := NewFrameReader(conn)
		var rejected uint64
		for {
			var r Reply
			if err := fr.Read(&r); err != nil {
				if errors.Is(err, syscall.ECONNRESET) {
					reset = true
				} else if !errors.Is(err, io.EOF) {
					t.Fatalf("reply stream ended with %v, want the server to hang up", err)
				}
				break
			}
			if r.Code == CodeBadRequest || r.Code == CodeUnknownOp {
				rejected++
			}
		}
		got := srv.Stats().Malformed - before
		switch {
		case !reset && got != rejected:
			t.Fatalf("Malformed grew by %d, but %d frames were rejected", got, rejected)
		case reset && (got < rejected || got == 0):
			t.Fatalf("connection reset with Malformed grown by %d, %d frames seen rejected", got, rejected)
		}

		fresh, fw, fr2 := dialV2(t, srv.Addr())
		defer fresh.Close()
		_ = fresh.SetDeadline(time.Now().Add(10 * time.Second))
		if err := fw.Write(Frame{ID: 1, Op: OpStatus}); err != nil {
			t.Fatal(err)
		}
		var r Reply
		if err := fr2.Read(&r); err != nil {
			t.Fatalf("fresh connection not served: %v", err)
		}
		if r.ID != 1 || r.Status == nil {
			t.Fatalf("fresh connection got %+v", r)
		}
	})
}
