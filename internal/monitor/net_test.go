package monitor

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

var opsKey = []byte("ops-plane-secret")

// TestServedStream runs the full attach/stream/admin/detach cycle
// over a real TCP connection in each transport mode: the streamed
// trace matches the pool's, admin verbs round-trip with their scoped
// errors intact, and a server-side drop ends the subscription cleanly.
func TestServedStream(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			p, rec := testPool(12, pool.UniformMachines(2, 2048), 2)
			mon := Attach(p, rec, "mon")
			srv := NewServer(mon, opsKey)
			srv.Mode = mode
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			sub, err := Dial(addr, mode, opsKey)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			if err := sub.Subscribe(0); err != nil {
				t.Fatal(err)
			}
			for mon.Subscribers() == 0 {
				time.Sleep(time.Millisecond)
			}
			col := NewCollector()
			done := make(chan error, 1)
			go func() { done <- sub.Collect(col) }()

			adm, err := Dial(addr, mode, opsKey)
			if err != nil {
				t.Fatal(err)
			}
			defer adm.Close()

			drive(p, mon, 24*time.Hour, nil)
			mon.Pump()

			// Admin verbs round-trip, including the scoped miss.
			detail, err := adm.Admin("compact", "schedd")
			if err != nil || !strings.Contains(detail, "compacted") {
				t.Fatalf("compact over the wire: %q, %v", detail, err)
			}
			_, err = adm.Admin("drain", "nosuch")
			se, ok := scope.AsError(err)
			if !ok || se.Scope != scope.ScopePool || se.Code != "UnknownTarget" {
				t.Fatalf("unknown target over the wire: %v", err)
			}
			_, err = adm.Admin("reboot", "c000")
			if se, ok = scope.AsError(err); !ok || se.Code != "UnknownVerb" {
				t.Fatalf("unknown verb over the wire: %v", err)
			}

			// The compact verb itself traced; stream the tail too.
			mon.Pump()

			// A server-side drop closes the subscriber session cleanly.
			if n := mon.DropSubscribers(); n != 1 {
				t.Fatalf("dropped %d subscribers, want 1", n)
			}
			if err := <-done; err != nil {
				t.Fatalf("collect after drop: %v", err)
			}
			want := rec.Events()
			got := col.Events()
			if len(got) != len(want) {
				t.Fatalf("streamed %d events, pool recorded %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d differs over the wire: %+v != %+v", i, got[i], want[i])
				}
			}
			if len(col.Snapshots()) == 0 {
				t.Fatal("no snapshots over the wire")
			}
		})
	}
}

// TestServedAuthFailure pins the authentication error in every mode:
// a client with the wrong key is refused before any record flows.
func TestServedAuthFailure(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure} {
		t.Run(mode.String(), func(t *testing.T) {
			p, rec := testPool(13, pool.UniformMachines(2, 2048), 1)
			mon := Attach(p, rec, "mon")
			_ = p
			srv := NewServer(mon, opsKey)
			srv.Mode = mode
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := Dial(addr, mode, []byte("wrong"))
			if err == nil {
				cli.Close()
				t.Fatal("a wrong key authenticated")
			}
		})
	}
}

// TestDeliverNeverBlocksOnBackpressure pins the pump-stall fix: a
// subscriber that stops reading (an unread net.Pipe — the hardest
// possible backpressure, zero kernel buffering) never blocks Deliver.
// The sink buffers into its bounded queue, overflows, fails, and
// closes its connection, all without the delivering goroutine — which
// in production holds the monitor lock inside the pool stepping
// loop — ever touching the network.
func TestDeliverNeverBlocksOnBackpressure(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	w := bufio.NewWriter(server)
	sink := newAsyncSink(server, func(_ byte, line string) error {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		return w.Flush()
	})

	overflowed := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 4*subscriberQueueDepth; i++ {
			if err = sink.Deliver(cmdEvent, "rec"); err != nil {
				break
			}
		}
		overflowed <- err
	}()
	select {
	case err := <-overflowed:
		if err == nil || !strings.Contains(err.Error(), "behind") {
			t.Fatalf("overflow error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Deliver blocked on an unread subscriber")
	}

	// The failure is permanent and the writer goroutine exits.
	if err := sink.Deliver(cmdEvent, "rec"); err == nil {
		t.Fatal("a failed sink accepted delivery")
	}
	sink.Close()
	select {
	case <-sink.done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer goroutine did not exit after the overflow")
	}
}

// TestServedBadFirstFrame pins the channel contract across
// transports: a framed connection whose first record is neither msub
// nor madm gets an explicit BadRequest error frame — the same refusal
// the text path gives — not a silent close.
func TestServedBadFirstFrame(t *testing.T) {
	p, rec := testPool(15, pool.UniformMachines(2, 2048), 1)
	_ = p
	mon := Attach(p, rec, "mon")
	srv := NewServer(mon, opsKey)
	srv.Mode = wire.ModeBinary
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := wire.NewSession(bufio.NewReader(conn), conn,
		wire.Config{Mode: wire.ModeBinary, Secret: opsKey})
	defer sess.Release()
	if err := sess.ClientHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteMsg(cmdEvent, []byte("noise")); err != nil {
		t.Fatal(err)
	}
	cmd, payload, err := sess.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if cmd != wire.CmdErr {
		t.Fatalf("reply %#x, want CmdErr", cmd)
	}
	se, derr := wire.DecodeErrorPayload(payload)
	if derr != nil {
		t.Fatal(derr)
	}
	if se.Scope != scope.ScopeFunction || se.Code != CodeBadRequest {
		t.Fatalf("refusal %v, want function-scope %s", se, CodeBadRequest)
	}
}

// TestKillMidStreamOverWire is the tentpole's kill guarantee, over a
// real socket: killing the monitor daemon mid-stream closes only the
// subscriber sessions, and the pool's dispositions are byte-identical
// to a run that never had a monitor at all.
func TestKillMidStreamOverWire(t *testing.T) {
	bare := func() string {
		p, _ := testPool(14, pool.UniformMachines(3, 2048), 4)
		p.Run(24 * time.Hour)
		return dispositions(p)
	}()

	p, rec := testPool(14, pool.UniformMachines(3, 2048), 4)
	mon := Attach(p, rec, "mon")
	srv := NewServer(mon, opsKey)
	srv.Mode = wire.ModeBinary
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cols := make([]*Collector, 2)
	dones := make([]chan error, 2)
	for i := range cols {
		cli, err := Dial(addr, wire.ModeBinary, opsKey)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Subscribe(0); err != nil {
			t.Fatal(err)
		}
		cols[i] = NewCollector()
		dones[i] = make(chan error, 1)
		go func(c *Client, col *Collector, done chan error) {
			done <- c.Collect(col)
		}(cli, cols[i], dones[i])
	}
	for mon.Subscribers() != 2 {
		time.Sleep(time.Millisecond)
	}

	drive(p, mon, 24*time.Hour, map[time.Duration]func(){
		45 * time.Minute: func() {
			if n := mon.Kill(); n != 2 {
				t.Errorf("kill closed %d sessions, want 2", n)
			}
		},
	})
	for i := range dones {
		if err := <-dones[i]; err != nil {
			t.Fatalf("subscriber %d did not close cleanly: %v", i, err)
		}
	}
	if got := dispositions(p); got != bare {
		t.Fatal("killing the monitor mid-stream changed the pool's dispositions")
	}
	if m := p.Metrics(); m.Completed != 4 {
		t.Fatalf("workload did not complete under the kill: %+v", m)
	}
}

// cutStreamServer serves one subscriber in mode: it answers the
// handshake and the subscription, streams one whole event record, then
// writes only the first cut bytes of a second record and hangs up.
func cutStreamServer(t *testing.T, mode wire.Mode, whole, next string, cut int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if mode == wire.ModeText {
			fmt.Fprintf(conn, "challenge %s\n", hex.EncodeToString(make([]byte, 16)))
			r.ReadString('\n') // the authenticator, accepted unchecked
			io.WriteString(conn, "ok\n")
			r.ReadString('\n') // msub
			io.WriteString(conn, "ok\n"+whole+"\n"+(next + "\n")[:cut])
			return
		}
		sess := wire.NewSession(r, conn, wire.Config{Secret: opsKey})
		defer sess.Release()
		if sess.ServerHandshake() != nil {
			return
		}
		if _, _, err := sess.ReadMsg(); err != nil {
			return
		}
		if sess.WriteMsg(wire.CmdOK) != nil || sess.WriteMsg(cmdEvent, []byte(whole)) != nil {
			return
		}
		conn.Write(wire.AppendFrame(nil, cmdEvent, 0, []byte(next))[:cut])
	}()
	return ln.Addr().String()
}

// TestCollectReportsTruncatedRecord pins the difference between a
// subscription that ended and one that lost a record: a server that
// hangs up between records ends Collect cleanly, one that hangs up
// mid-record (mid frame header, mid frame body, mid text line) makes
// Collect return the network-scope TruncatedFrame.
func TestCollectReportsTruncatedRecord(t *testing.T) {
	whole, next := EncodeEvent(sampleEvents[1]), EncodeEvent(sampleEvents[2])
	for _, tc := range []struct {
		name string
		mode wire.Mode
		cut  int
		lost bool
	}{
		{"binary/clean", wire.ModeBinary, 0, false},
		{"binary/header", wire.ModeBinary, 3, true},
		{"binary/body", wire.ModeBinary, 7 + len(next)/2, true},
		{"text/clean", wire.ModeText, 0, false},
		{"text/line", wire.ModeText, len(next) / 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := cutStreamServer(t, tc.mode, whole, next, tc.cut)
			cli, err := Dial(addr, tc.mode, opsKey)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if err := cli.Subscribe(0); err != nil {
				t.Fatal(err)
			}
			col := NewCollector()
			err = cli.Collect(col)
			if !tc.lost && err != nil {
				t.Fatalf("a hang-up between records: Collect = %v, want nil", err)
			}
			if tc.lost {
				se, ok := scope.AsError(err)
				if !ok || se.Code != wire.CodeTruncatedFrame || se.Scope != scope.ScopeNetwork {
					t.Fatalf("a hang-up mid-record: Collect = %v, want network-scope %s",
						err, wire.CodeTruncatedFrame)
				}
			}
			if evs := col.Events(); len(evs) != 1 || evs[0] != sampleEvents[1] {
				t.Fatalf("collected %+v, want only the whole record", evs)
			}
		})
	}
}
