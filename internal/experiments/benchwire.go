package experiments

// The wire-transport benchmark: live round-trips over real loopback
// TCP for both protocol stacks (chirp, remoteio) in each of the three
// wire modes — the legacy text protocol, the binary frame codec, and
// the authenticated-encryption session.  Measured from the client's
// socket: round-trips per second, frames per second (one request plus
// one response per round-trip), and bytes per syscall.  The binary
// codec's wins are structural — one write per frame instead of a
// bufio flush plus payload write, no Sprintf/Fields/Atoi per RPC, and
// zero-copy reads into pooled buffers — so binary must beat text on
// the same workload or the codec is a regression.

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// BenchWireRow is one measured (stack, mode, op) arm, the unit of
// BENCH_wire.json.
type BenchWireRow struct {
	// Stack is "chirp" or "remoteio".
	Stack string `json:"stack"`
	// Mode is "text", "binary", or "secure".
	Mode string `json:"mode"`
	// Op names the workload, e.g. "pread-4096".
	Op     string  `json:"op"`
	Rounds int     `json:"rounds"`
	WallMS float64 `json:"wall_ms"`
	// RoundTripsPerSec is completed RPCs per wall-clock second.
	RoundTripsPerSec float64 `json:"round_trips_per_sec"`
	// FramesPerSec counts wire messages (request + response = 2 per
	// round trip) per second.
	FramesPerSec float64 `json:"frames_per_sec"`
	// Syscalls and Bytes are the client socket's Read+Write call and
	// byte totals for the timed region; BytesPerSyscall is their
	// ratio — the batching efficiency of the framing layer.
	Syscalls        uint64  `json:"syscalls"`
	Bytes           uint64  `json:"bytes"`
	BytesPerSyscall float64 `json:"bytes_per_syscall"`
	// SpeedupVsText is set on binary and secure rows: the text arm's
	// wall time over this arm's, same stack and op.
	SpeedupVsText float64 `json:"speedup_vs_text,omitempty"`
}

// countingConn wraps a client socket and counts Read/Write calls and
// bytes — each call is one syscall on a real TCP conn.
type countingConn struct {
	net.Conn
	calls atomic.Uint64
	bytes atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.calls.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.calls.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) reset() {
	c.calls.Store(0)
	c.bytes.Store(0)
}

// wireModes is the benchmark's arm order: text is the baseline the
// others are compared against.
var wireModes = []wire.Mode{wire.ModeText, wire.ModeBinary, wire.ModeSecure}

const benchWireWarmup = 64

// benchChirp measures one (mode, size) chirp arm.
func benchChirp(mode wire.Mode, size, rounds int) (BenchWireRow, error) {
	row := BenchWireRow{Stack: "chirp", Mode: mode.String(),
		Op: fmt.Sprintf("pread-%d", size), Rounds: rounds}
	fs := vfs.New()
	if err := fs.WriteFile("/data", bytes.Repeat([]byte("x"), size)); err != nil {
		return row, err
	}
	srv := chirp.NewServer(&chirp.VFSBackend{FS: fs}, "bench")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return row, err
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return row, err
	}
	cc := &countingConn{Conn: raw}
	c, err := chirp.NewClient(cc, "bench", chirp.DialOptions{Mode: mode})
	if err != nil {
		raw.Close()
		return row, err
	}
	defer c.Close()
	fd, err := c.Open("/data", chirp.FlagRead)
	if err != nil {
		return row, err
	}
	op := func() error {
		_, err := c.PRead(fd, size, 0)
		return err
	}
	return timeWireOp(row, cc, rounds, op)
}

// benchRemoteio measures one (mode, size) remoteio arm.
func benchRemoteio(mode wire.Mode, size, rounds int) (BenchWireRow, error) {
	row := BenchWireRow{Stack: "remoteio", Mode: mode.String(),
		Op: fmt.Sprintf("pread-%d", size), Rounds: rounds}
	fs := vfs.New()
	if err := fs.WriteFile("/data", bytes.Repeat([]byte("x"), size)); err != nil {
		return row, err
	}
	srv := remoteio.NewServer(fs, []byte("bench-key"))
	srv.Mode = mode
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return row, err
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return row, err
	}
	cc := &countingConn{Conn: raw}
	c, err := remoteio.NewClient(cc, []byte("bench-key"), remoteio.DialOptions{Mode: mode})
	if err != nil {
		raw.Close()
		return row, err
	}
	defer c.Close()
	op := func() error {
		_, err := c.Read("/data", 0, size)
		return err
	}
	return timeWireOp(row, cc, rounds, op)
}

// benchWireTrials is how many timed repetitions each arm runs; the
// reported wall time is the fastest.  A single trial at ~10 µs per
// round-trip is at the mercy of scheduler noise — one descheduled
// burst can swing an arm 20% and flake the binary-beats-text gate —
// and the minimum over a few trials is the standard estimator for
// the workload's actual cost.
const benchWireTrials = 3

// timeWireOp runs the warmup, then benchWireTrials timed regions,
// keeping the fastest; the socket counters are reset per trial, so
// the reported syscall/byte totals always describe one region.
func timeWireOp(row BenchWireRow, cc *countingConn, rounds int, op func() error) (BenchWireRow, error) {
	for i := 0; i < benchWireWarmup; i++ {
		if err := op(); err != nil {
			return row, err
		}
	}
	var wall time.Duration
	for t := 0; t < benchWireTrials; t++ {
		cc.reset()
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := op(); err != nil {
				return row, err
			}
		}
		if d := time.Since(start); t == 0 || d < wall {
			wall = d
		}
	}
	row.WallMS = float64(wall.Nanoseconds()) / 1e6
	secs := wall.Seconds()
	if secs > 0 {
		row.RoundTripsPerSec = float64(rounds) / secs
		row.FramesPerSec = 2 * row.RoundTripsPerSec
	}
	row.Syscalls = cc.calls.Load()
	row.Bytes = cc.bytes.Load()
	if row.Syscalls > 0 {
		row.BytesPerSyscall = float64(row.Bytes) / float64(row.Syscalls)
	}
	return row, nil
}

// BenchWire runs the full matrix: both stacks, all three modes, a
// small and a page-sized payload, rounds round-trips per arm.  The
// returned error is non-nil if any binary arm failed to beat its text
// baseline on round-trip throughput — the codec's reason to exist.
func BenchWire(rounds int) ([]BenchWireRow, *Report, error) {
	rep := &Report{
		ID:    "bench-wire",
		Title: "wire transport: text vs binary vs encrypted, live TCP round-trips",
		Headers: []string{"stack", "mode", "op", "rt/s", "frames/s",
			"bytes/syscall", "vs text"},
	}
	if rounds <= 0 {
		rounds = 2000
	}
	sizes := []int{64, 4096}
	type arm func(wire.Mode, int, int) (BenchWireRow, error)
	stacks := []struct {
		name string
		run  arm
	}{{"chirp", benchChirp}, {"remoteio", benchRemoteio}}

	var rows []BenchWireRow
	var regressions []string
	for _, st := range stacks {
		for _, size := range sizes {
			textWall := 0.0
			for _, mode := range wireModes {
				row, err := st.run(mode, size, rounds)
				if err != nil {
					return rows, rep, fmt.Errorf("%s/%s/%s: %v", st.name, mode, row.Op, err)
				}
				if mode == wire.ModeText {
					textWall = row.WallMS
				} else if textWall > 0 && row.WallMS > 0 {
					row.SpeedupVsText = textWall / row.WallMS
				}
				rows = append(rows, row)
				vs := "-"
				if row.SpeedupVsText > 0 {
					vs = fmt.Sprintf("%.2fx", row.SpeedupVsText)
				}
				rep.AddRow(row.Stack, row.Mode, row.Op,
					fmt.Sprintf("%.0f", row.RoundTripsPerSec),
					fmt.Sprintf("%.0f", row.FramesPerSec),
					fmt.Sprintf("%.1f", row.BytesPerSyscall), vs)
				if row.Mode == wire.ModeBinary.String() && row.SpeedupVsText < 1.0 {
					regressions = append(regressions,
						fmt.Sprintf("%s/%s %.2fx", row.Stack, row.Op, row.SpeedupVsText))
				}
			}
		}
	}
	if len(regressions) > 0 {
		rep.AddNote("REGRESSION: binary slower than text: %v", regressions)
		return rows, rep, fmt.Errorf("bench-wire: binary arm slower than text: %v", regressions)
	}
	rep.AddNote("binary beat text on every (stack, op); secure adds AEAD cost on the same frames")
	return rows, rep, nil
}
