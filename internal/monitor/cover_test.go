package monitor

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// TestMonitorAccessors pins the small observable surface: the name,
// the delivery counter, and detach semantics for known and unknown
// sinks.
func TestMonitorAccessors(t *testing.T) {
	p, rec := testPool(21, pool.UniformMachines(2, 2048), 1)
	mon := Attach(p, rec, "ops")
	if mon.Name() != "ops" {
		t.Fatalf("name = %q", mon.Name())
	}
	col := NewCollector()
	if err := mon.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	drive(p, mon, 24*time.Hour, nil)
	mon.Pump()
	if mon.Delivered() == 0 {
		t.Error("nothing delivered after a full run")
	}
	// Detaching a sink that was never subscribed is a no-op.
	mon.Detach(NewCollector())
	if mon.Subscribers() != 1 {
		t.Fatalf("subscribers = %d after a bogus detach", mon.Subscribers())
	}
	mon.Detach(col)
	if mon.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after detach", mon.Subscribers())
	}
	if !col.Closed() {
		t.Error("detach did not close the sink")
	}
	// A second delivery to a closed collector is refused.
	if err := col.Deliver(cmdEvent, ""); err == nil {
		t.Error("a closed collector accepted delivery")
	}
}

// TestContractDeclares pins the channel's explicit error interface.
func TestContractDeclares(t *testing.T) {
	c := Contract()
	for code, want := range map[string]scope.Scope{
		CodeBadRequest:  scope.ScopeFunction,
		CodeAuthFailed:  scope.ScopeLocalResource,
		CodeMonitorDead: scope.ScopeProcess,
		"UnknownVerb":   scope.ScopePool,
		"UnknownTarget": scope.ScopePool,
	} {
		s, ok := c.Admits(code)
		if !ok || s != want {
			t.Errorf("contract admits %s at %v (ok=%v), want %v", code, s, ok, want)
		}
	}
}

// TestServedSubscribeAfterKill: a subscription against a killed
// monitor is acked at the transport level and then refused in-stream,
// with the process-scope MonitorDead error intact across the wire —
// in both the framed and the legacy text protocol.
func TestServedSubscribeAfterKill(t *testing.T) {
	for _, mode := range []wire.Mode{wire.ModeText, wire.ModeBinary} {
		t.Run(mode.String(), func(t *testing.T) {
			p, rec := testPool(22, pool.UniformMachines(2, 2048), 1)
			_ = p
			mon := Attach(p, rec, "ops")
			mon.Kill()
			srv := NewServer(mon, opsKey)
			srv.Mode = mode
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := Dial(addr, mode, opsKey)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if err := cli.Subscribe(0); err != nil {
				t.Fatalf("subscribe ack: %v", err)
			}
			_, _, err = cli.Next()
			se, ok := scope.AsError(err)
			if !ok || se.Code != CodeMonitorDead || se.Scope != scope.ScopeProcess {
				t.Fatalf("refusal over the wire = %v, want process-scope MonitorDead", err)
			}
		})
	}
}

// TestIsConnClosed pins the shapes a torn-down subscriber session
// reads as: a scoped ConnectionLost, the OS-level close strings, and
// nothing else.
func TestIsConnClosed(t *testing.T) {
	closed := []error{
		scope.Escape(scope.ScopeNetwork, CodeConnectionLost, io.EOF),
		errors.New("read tcp: use of closed network connection"),
		errors.New("read tcp: connection reset by peer"),
		fmt.Errorf("wrapped: %w", io.EOF),
	}
	for _, err := range closed {
		if !isConnClosed(err) {
			t.Errorf("%v not recognized as a closed connection", err)
		}
	}
	if isConnClosed(errors.New("bad record")) {
		t.Error("an ordinary error read as a closed connection")
	}
	// A frame cut short is a lost record, not a close, whatever its
	// text says about EOF.
	for _, err := range []error{
		scope.New(scope.ScopeNetwork, wire.CodeTruncatedFrame, "frame header truncated: %v", io.ErrUnexpectedEOF),
		scope.New(scope.ScopeNetwork, wire.CodeTruncatedFrame, "frame body truncated: %v", io.ErrUnexpectedEOF),
		scope.New(scope.ScopeNetwork, wire.CodeTruncatedFrame, "frame header truncated: read tcp: connection reset by peer"),
		io.ErrUnexpectedEOF,
	} {
		if isConnClosed(err) {
			t.Errorf("%v read as a closed connection", err)
		}
	}
}

// TestParseRejectsOps extends the strict-parse suite to the control
// records: subscription, admin, and admin-ok lines that are damaged,
// non-canonical, or truncated must all refuse.
func TestParseRejectsOps(t *testing.T) {
	if _, err := ParseSub(EncodeSub(7)); err != nil {
		t.Fatalf("canonical sub rejected: %v", err)
	}
	for _, raw := range []string{
		"",
		"msub",
		"msub from=-1 crc=00000000",
		"mev from=1",
		EncodeSub(7) + " ",
		"msub from=07 crc=deadbeef",
	} {
		if _, err := ParseSub(raw); err == nil {
			t.Errorf("ParseSub accepted %q", raw)
		}
	}
	for _, raw := range []string{
		"",
		"madm verb=drain",
		"madm target=\"big\" verb=\"drain\"",
		EncodeAdmin("drain", "big") + "x",
	} {
		if _, _, err := ParseAdmin(raw); err == nil {
			t.Errorf("ParseAdmin accepted %q", raw)
		}
	}
	for _, raw := range []string{
		"",
		"mok verb=\"drain\"",
		EncodeAdminOK("drain", "big", "draining") + "x",
	} {
		if _, _, _, err := ParseAdminOK(raw); err == nil {
			t.Errorf("ParseAdminOK accepted %q", raw)
		}
	}
	if _, _, _, err := ParseAdminOK(EncodeAdminOK("drain", "big", "draining big")); err != nil {
		t.Fatalf("canonical admin-ok rejected: %v", err)
	}
}

// reseal recomputes a record's CRC trailer after a test mutates its
// payload, so the parse failure under test is the field's, not the
// checksum's.
func reseal(t *testing.T, s string) string {
	t.Helper()
	i := strings.LastIndex(s, " crc=")
	if i < 0 {
		t.Fatalf("no CRC trailer in %q", s)
	}
	payload := s[:i]
	return fmt.Sprintf("%s crc=%08x", payload, crc32.ChecksumIEEE([]byte(payload)))
}

// TestParseEventRejectsEveryField walks the canonical event record and
// damages each key in turn — with the CRC re-sealed, so the strict
// field parse itself must refuse, whichever field it is: no prefix
// parsing, no field skipping.
func TestParseEventRejectsEveryField(t *testing.T) {
	canonical := EncodeEvent(sampleEvents[1])
	if _, err := ParseEvent(canonical); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t", "comp", "kind", "job", "code", "scope", "ekind", "detail", "value"} {
		old := key + "="
		mut := strings.Replace(canonical, old, "x"+old, 1)
		if mut == canonical {
			t.Fatalf("field %s not found in %q", key, canonical)
		}
		if _, err := ParseEvent(reseal(t, mut)); err == nil {
			t.Errorf("ParseEvent accepted a damaged %s field", key)
		}
	}
	// Unquoted and badly-terminated strings refuse too.
	for _, mut := range []string{
		strings.Replace(canonical, "comp=\"", "comp=", 1),
		strings.Replace(canonical, "\" kind=", "\"kind=", 1),
	} {
		if _, err := ParseEvent(reseal(t, mut)); err == nil {
			t.Errorf("ParseEvent accepted %q", mut)
		}
	}
	// A snapshot with one damaged field refuses the same way.
	snap := EncodeSnapshot(Snapshot{T: 5, Jobs: 2, Completed: 1})
	if _, err := ParseSnapshot(reseal(t, strings.Replace(snap, "held=", "xheld=", 1))); err == nil {
		t.Error("ParseSnapshot accepted a damaged field")
	}
}
