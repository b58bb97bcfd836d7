package monitor

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/wire"
)

// Error codes of the ops-plane channel.
const (
	CodeAuthFailed     = "AuthenticationFailed"
	CodeBadRequest     = "BadRequest"
	CodeMonitorDead    = "MonitorDead"
	CodeConnectionLost = wire.CodeConnectionLostName
)

// Contract returns the explicit error interface of the channel: an
// admin verb can fail at the scope of the daemon it touched, the pool
// can disown an unknown target, and the transport can die — and the
// caller can tell which happened.
func Contract() *scope.Contract {
	return scope.NewContract("monitor", scope.ScopeNetwork, CodeConnectionLost).
		Declare(CodeBadRequest, scope.ScopeFunction).
		Declare(CodeAuthFailed, scope.ScopeLocalResource).
		Declare(CodeMonitorDead, scope.ScopeProcess).
		Declare("UnknownVerb", scope.ScopePool).
		Declare("UnknownTarget", scope.ScopePool)
}

// Server exposes one monitor over TCP.  A connection's first record
// declares what it is: msub makes it a subscriber session (one-way,
// server to client, until either side closes), madm makes it an admin
// session (strict request/reply).  Serving is the monitor's business
// only — accepting, authenticating, or losing a connection never
// touches the pool.
type Server struct {
	mon *Monitor
	key []byte

	// Mode selects the transport for every connection; set before
	// Listen.  ModeText is the legacy line protocol with
	// challenge/response authentication; any other mode serves the
	// framed wire.Session and accepts whichever of binary/secure the
	// client opens with.
	Mode wire.Mode

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates an ops-plane service for mon, authenticated by
// the shared key.
func NewServer(mon *Monitor, key []byte) *Server {
	return &Server{mon: mon, key: append([]byte(nil), key...), conns: make(map[net.Conn]struct{})}
}

// Listen starts the service and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the service and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	if s.Mode != wire.ModeText {
		s.serveSession(conn)
		return
	}
	s.serveText(conn)
}

// serveSession handles one framed connection (binary or secure).
func (s *Server) serveSession(conn net.Conn) {
	sess := wire.NewSession(bufio.NewReader(conn), conn, wire.Config{
		Secret: s.key,
		AuthFailure: func() *scope.Error {
			return scope.New(scope.ScopeLocalResource, CodeAuthFailed,
				"monitor authentication failed")
		},
	})
	defer sess.Release()
	if sess.ServerHandshake() != nil {
		return
	}
	cmd, payload, err := sess.ReadMsg()
	if err != nil {
		return
	}
	switch cmd {
	case cmdSub:
		from, err := ParseSub(string(payload))
		if err != nil {
			sess.WriteError(scope.New(scope.ScopeFunction, CodeBadRequest, "%v", err),
				CodeBadRequest, scope.ScopeFunction)
			return
		}
		// Ack before registering the sink: once subscribed, the pump
		// goroutine owns the write half, and a concurrent ack would
		// race it.  A refused subscription (the monitor is dead)
		// follows the ack as an error frame in the stream.
		if sess.WriteMsg(wire.CmdOK) != nil {
			return
		}
		sink := newAsyncSink(conn, func(cmd byte, line string) error {
			return sess.WriteMsg(cmd, []byte(line))
		})
		if err := s.mon.Subscribe(sink, from); err != nil {
			sess.WriteError(err, CodeMonitorDead, scope.ScopeProcess)
			sink.Close()
			<-sink.done
			return
		}
		// The stream is one-way from here: the sink's writer goroutine
		// owns the write half while this goroutine blocks on the read
		// half, waiting only for the client to hang up.  The session's
		// read and write halves are independent, so the split is safe.
		for {
			if _, _, err := sess.ReadMsg(); err != nil {
				break
			}
		}
		s.mon.Detach(sink)
		sink.Close()
		// Wait for the writer goroutine to flush and exit before the
		// deferred Release returns the session's pooled buffers; the
		// sink's close grace bounds the wait.
		<-sink.done

	case cmdAdmin:
		for {
			verb, target, err := ParseAdmin(string(payload))
			if err != nil {
				sess.WriteError(scope.New(scope.ScopeFunction, CodeBadRequest, "%v", err),
					CodeBadRequest, scope.ScopeFunction)
				return
			}
			detail, aerr := s.mon.Admin(verb, target)
			if aerr != nil {
				if sess.WriteError(aerr, CodeBadRequest, scope.ScopePool) != nil {
					return
				}
			} else if sess.WriteMsg(wire.CmdOK, []byte(EncodeAdminOK(verb, target, detail))) != nil {
				return
			}
			if cmd, payload, err = sess.ReadMsg(); err != nil || cmd != cmdAdmin {
				return
			}
		}

	default:
		// The same explicit refusal the text path gives: a first
		// record that is neither a subscribe nor an admin request is a
		// bad request, not a silent close.
		sess.WriteError(scope.New(scope.ScopeFunction, CodeBadRequest,
			"expected msub or madm, got command %#x", cmd),
			CodeBadRequest, scope.ScopeFunction)
	}
}

// subscriberQueueDepth bounds the records buffered between the pump
// and one network subscriber's writer goroutine.  A subscriber this
// far behind has stopped reading; it is dropped rather than allowed
// to push TCP backpressure back into the pump.
const subscriberQueueDepth = 1024

// closeFlushGrace bounds the final flush of a closing subscriber: a
// peer that will not drain its tail within the grace loses it when
// the timer closes the connection under the blocked write.  Wall
// clock, deliberately — this is network teardown, never a simulated
// path.
const closeFlushGrace = 5 * time.Second

// sinkRecord is one queued stream record.
type sinkRecord struct {
	cmd  byte
	line string
}

// asyncSink adapts one network subscriber to the Sink interface with
// the decoupling the ops plane's failure scope demands: Deliver
// enqueues into a bounded queue and never touches the network, so a
// subscriber that stops reading cannot stall the pump (and the pool
// stepping loop serialized behind it) via TCP backpressure.  A writer
// goroutine drains the queue; a full queue or a failed write poisons
// the sink permanently, and the pump drops it on the next Deliver.
type asyncSink struct {
	write func(cmd byte, line string) error
	conn  net.Conn
	queue chan sinkRecord
	stop  chan struct{}
	done  chan struct{} // closed when the writer goroutine exits

	mu     sync.Mutex
	closed bool
	failed error
}

func newAsyncSink(conn net.Conn, write func(cmd byte, line string) error) *asyncSink {
	k := &asyncSink{
		write: write,
		conn:  conn,
		queue: make(chan sinkRecord, subscriberQueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go k.drain()
	return k
}

// Deliver implements Sink without ever blocking: the record is queued
// for the writer goroutine, and a full queue means the subscriber
// stopped reading long ago — that subscriber fails permanently,
// scoped to its own session.
func (k *asyncSink) Deliver(cmd byte, line string) error {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return fmt.Errorf("monitor: subscriber session closed")
	}
	if err := k.failed; err != nil {
		k.mu.Unlock()
		return err
	}
	k.mu.Unlock()
	select {
	case k.queue <- sinkRecord{cmd: cmd, line: line}:
		return nil
	default:
		err := fmt.Errorf("monitor: subscriber fell %d records behind and was dropped",
			subscriberQueueDepth)
		k.fail(err)
		// Closing the connection unblocks the writer mid-write.
		k.conn.Close()
		return err
	}
}

// Close implements Sink: no new records are accepted, and the
// connection closes once the writer flushes what the pump already
// handed over — or when the grace expires, whichever comes first.
// Close never blocks; the monitor calls it under its own lock.
func (k *asyncSink) Close() {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	k.mu.Unlock()
	close(k.stop)
	time.AfterFunc(closeFlushGrace, func() { k.conn.Close() })
}

func (k *asyncSink) fail(err error) {
	k.mu.Lock()
	if k.failed == nil {
		k.failed = err
	}
	k.mu.Unlock()
}

// drain is the writer goroutine — the only place subscriber bytes hit
// the network.  On Close it flushes the queued tail, then closes the
// connection, which also unblocks the serving goroutine's read.
func (k *asyncSink) drain() {
	defer close(k.done)
	defer k.conn.Close()
	for {
		select {
		case <-k.stop:
			// Graceful close: a clean detach or server-side drop must
			// not truncate what the pump already handed over.
			for {
				select {
				case rec := <-k.queue:
					if k.write(rec.cmd, rec.line) != nil {
						return
					}
				default:
					return
				}
			}
		case rec := <-k.queue:
			if err := k.write(rec.cmd, rec.line); err != nil {
				k.fail(err)
				return
			}
		}
	}
}

// serveText handles one legacy line-protocol connection: an HMAC
// challenge/response, then the same first-record dispatch, with
// records travelling as bare lines (their tags make the command byte
// redundant).
func (s *Server) serveText(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return
	}
	fmt.Fprintf(w, "challenge %s\n", hex.EncodeToString(nonce))
	if w.Flush() != nil {
		return
	}
	line, err := r.ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 2 || fields[0] != "auth" || !s.verify(nonce, fields[1]) {
		fmt.Fprint(w, wire.EncodeError(
			scope.New(scope.ScopeLocalResource, CodeAuthFailed, "bad authenticator"),
			CodeAuthFailed, scope.ScopeLocalResource))
		w.Flush()
		return
	}
	fmt.Fprint(w, "ok\n")
	if w.Flush() != nil {
		return
	}

	line, err = r.ReadString('\n')
	if err != nil {
		return
	}
	line = strings.TrimSpace(line)
	switch {
	case strings.HasPrefix(line, "msub "):
		from, err := ParseSub(line)
		if err != nil {
			fmt.Fprint(w, wire.EncodeError(
				scope.New(scope.ScopeFunction, CodeBadRequest, "%v", err),
				CodeBadRequest, scope.ScopeFunction))
			w.Flush()
			return
		}
		// Ack before registering the sink, for the same single-writer
		// reason as the framed path.
		fmt.Fprint(w, "ok\n")
		if w.Flush() != nil {
			return
		}
		// The record tags make the command byte redundant on this
		// transport, so the writer ignores it.
		sink := newAsyncSink(conn, func(_ byte, line string) error {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
			return w.Flush()
		})
		if err := s.mon.Subscribe(sink, from); err != nil {
			fmt.Fprint(w, wire.EncodeError(err, CodeMonitorDead, scope.ScopeProcess))
			w.Flush()
			sink.Close()
			<-sink.done
			return
		}
		// Block on the read half until the client hangs up; the sink's
		// writer goroutine owns the write half.
		for {
			if _, err := r.ReadString('\n'); err != nil {
				break
			}
		}
		s.mon.Detach(sink)
		sink.Close()
		<-sink.done

	case strings.HasPrefix(line, "madm "):
		for {
			verb, target, err := ParseAdmin(line)
			if err != nil {
				fmt.Fprint(w, wire.EncodeError(
					scope.New(scope.ScopeFunction, CodeBadRequest, "%v", err),
					CodeBadRequest, scope.ScopeFunction))
				w.Flush()
				return
			}
			detail, aerr := s.mon.Admin(verb, target)
			if aerr != nil {
				fmt.Fprint(w, wire.EncodeError(aerr, CodeBadRequest, scope.ScopePool))
			} else {
				fmt.Fprintf(w, "ok %s\n", EncodeAdminOK(verb, target, detail))
			}
			if w.Flush() != nil {
				return
			}
			raw, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimSpace(raw)
		}

	default:
		fmt.Fprint(w, wire.EncodeError(
			scope.New(scope.ScopeFunction, CodeBadRequest, "expected msub or madm, got %q", line),
			CodeBadRequest, scope.ScopeFunction))
		w.Flush()
	}
}

func (s *Server) verify(nonce []byte, mac string) bool {
	want := authenticate(s.key, nonce)
	got, err := hex.DecodeString(mac)
	if err != nil {
		return false
	}
	return hmac.Equal(got, want)
}

// authenticate computes the HMAC response for a nonce — the same
// construction the remote I/O channel uses.
func authenticate(key, nonce []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(nonce)
	return m.Sum(nil)
}
