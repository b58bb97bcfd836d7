package monitor

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// Client is one ops-plane connection: a subscriber draining the
// stream, or an admin session issuing verbs.  Which one it becomes is
// decided by the first call (Subscribe or Admin), mirroring the
// server's first-record dispatch.
type Client struct {
	conn net.Conn
	mode wire.Mode
	sess *wire.Session // framed modes only
	r    *bufio.Reader
	w    *bufio.Writer // text mode only
}

// Dial connects and authenticates in the given mode.
func Dial(addr string, mode wire.Mode, key []byte) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
	}
	c := &Client{conn: conn, mode: mode, r: bufio.NewReader(conn)}
	if mode == wire.ModeText {
		c.w = bufio.NewWriter(conn)
		if err := c.textAuth(key); err != nil {
			conn.Close()
			return nil, err
		}
		return c, nil
	}
	c.sess = wire.NewSession(c.r, conn, wire.Config{Mode: mode, Secret: key})
	if err := c.sess.ClientHandshake(); err != nil {
		c.sess.Release()
		conn.Close()
		return nil, err
	}
	return c, nil
}

// textAuth answers the server's HMAC challenge.
func (c *Client) textAuth(key []byte) error {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 2 || fields[0] != "challenge" {
		return scope.New(scope.ScopeNetwork, CodeBadRequest,
			"expected a challenge, got %q", strings.TrimSpace(line))
	}
	nonce, err := hex.DecodeString(fields[1])
	if err != nil {
		return scope.New(scope.ScopeNetwork, CodeBadRequest, "bad challenge nonce")
	}
	fmt.Fprintf(c.w, "auth %s\n", hex.EncodeToString(authenticate(key, nonce)))
	if err := c.w.Flush(); err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
	}
	return c.readTextOK()
}

// readTextOK consumes one "ok ..." or "error ..." line.
func (c *Client) readTextOK() error {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
	}
	line = strings.TrimSpace(line)
	if line == "ok" || strings.HasPrefix(line, "ok ") {
		return nil
	}
	if rest, ok := strings.CutPrefix(line, "error "); ok {
		se, derr := wire.DecodeError(rest)
		if derr != nil {
			return scope.New(scope.ScopeNetwork, CodeBadRequest, "%v", derr)
		}
		return se
	}
	return scope.New(scope.ScopeNetwork, CodeBadRequest, "unexpected reply %q", line)
}

// Close tears the connection down.
func (c *Client) Close() {
	if c.sess != nil {
		c.sess.Release()
		c.sess = nil
	}
	c.conn.Close()
}

// Subscribe turns this connection into a subscriber session streaming
// from event index `from`.
func (c *Client) Subscribe(from int64) error {
	if c.mode == wire.ModeText {
		fmt.Fprintln(c.w, EncodeSub(from))
		if err := c.w.Flush(); err != nil {
			return scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
		}
		return c.readTextOK()
	}
	if err := c.sess.WriteMsg(cmdSub, []byte(EncodeSub(from))); err != nil {
		return err
	}
	cmd, payload, err := c.sess.ReadMsg()
	if err != nil {
		return err
	}
	if cmd == wire.CmdErr {
		return c.decodeErr(payload)
	}
	if cmd != wire.CmdOK {
		return scope.New(scope.ScopeNetwork, CodeBadRequest,
			"subscribe: unexpected reply %#x", cmd)
	}
	return nil
}

// Next reads one streamed record.  A clean server close is io.EOF; a
// record cut short by the close is a network-scope TruncatedFrame in
// either transport.
func (c *Client) Next() (byte, string, error) {
	if c.mode == wire.ModeText {
		line, err := c.r.ReadString('\n')
		if err != nil && line != "" {
			return 0, "", scope.New(scope.ScopeNetwork, wire.CodeTruncatedFrame,
				"stream line truncated after %d bytes: %v", len(line), err)
		}
		if err != nil {
			return 0, "", err
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "mev "):
			return cmdEvent, line, nil
		case strings.HasPrefix(line, "mmet "):
			return cmdMetrics, line, nil
		}
		// A refused subscription arrives in-stream as an error line.
		if rest, ok := strings.CutPrefix(line, "error "); ok {
			if se, derr := wire.DecodeError(rest); derr == nil {
				return 0, "", se
			}
		}
		return 0, "", scope.New(scope.ScopeNetwork, CodeBadRequest,
			"unexpected stream line %q", line)
	}
	cmd, payload, err := c.sess.ReadMsg()
	if err != nil {
		return 0, "", err
	}
	if cmd == wire.CmdErr {
		return 0, "", c.decodeErr(payload)
	}
	return cmd, string(payload), nil
}

// Collect drains the stream into col until the server closes the
// connection between records (which reads as success: the
// subscription simply ended), a record arrives cut short, or a record
// fails to decode.
func (c *Client) Collect(col *Collector) error {
	for {
		cmd, line, err := c.Next()
		if err != nil {
			if isConnClosed(err) {
				return nil
			}
			return err
		}
		if err := col.Deliver(cmd, line); err != nil {
			return err
		}
	}
}

// isConnClosed recognizes the errors a torn-down subscriber session
// surfaces as between records: a clean EOF, a scoped ConnectionLost,
// or the OS's closed-socket errors.  Any other scoped error — above
// all a TruncatedFrame, a record lost mid-flight — is not a close.
func isConnClosed(err error) bool {
	if errors.Is(err, io.EOF) {
		return true
	}
	if se, ok := scope.AsError(err); ok {
		return se.Code == CodeConnectionLost
	}
	msg := err.Error()
	return strings.Contains(msg, "use of closed network connection") ||
		strings.Contains(msg, "connection reset by peer")
}

// Admin issues one verb on this connection and returns the server's
// detail line.  A failed verb comes back as the scoped error the pool
// raised, reconstructed across the wire.
func (c *Client) Admin(verb, target string) (string, error) {
	if c.mode == wire.ModeText {
		fmt.Fprintln(c.w, EncodeAdmin(verb, target))
		if err := c.w.Flush(); err != nil {
			return "", scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
		}
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", scope.Escape(scope.ScopeNetwork, CodeConnectionLost, err)
		}
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "ok "); ok {
			_, _, detail, err := ParseAdminOK(rest)
			return detail, err
		}
		if rest, ok := strings.CutPrefix(line, "error "); ok {
			se, derr := wire.DecodeError(rest)
			if derr != nil {
				return "", scope.New(scope.ScopeNetwork, CodeBadRequest, "%v", derr)
			}
			return "", se
		}
		return "", scope.New(scope.ScopeNetwork, CodeBadRequest, "unexpected reply %q", line)
	}
	if err := c.sess.WriteMsg(cmdAdmin, []byte(EncodeAdmin(verb, target))); err != nil {
		return "", err
	}
	cmd, payload, err := c.sess.ReadMsg()
	if err != nil {
		return "", err
	}
	switch cmd {
	case wire.CmdOK:
		_, _, detail, err := ParseAdminOK(string(payload))
		return detail, err
	case wire.CmdErr:
		return "", c.decodeErr(payload)
	}
	return "", scope.New(scope.ScopeNetwork, CodeBadRequest, "unexpected reply %#x", cmd)
}

// decodeErr rebuilds a scoped error from a CmdErr payload.
func (c *Client) decodeErr(payload []byte) error {
	se, err := wire.DecodeErrorPayload(payload)
	if err != nil {
		return scope.New(scope.ScopeNetwork, CodeBadRequest, "%v", err)
	}
	return se
}
