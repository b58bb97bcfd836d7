package main

import (
	"net"
	"sync/atomic"
)

// countingConn counts the Read and Write calls made on a connection
// and the bytes they carry.  On a TCP connection each call is one
// system call, so the counts show how well a protocol layer batches
// its frames.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
	bytes         atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// syscalls returns the number of Read and Write calls so far.
func (c *countingConn) syscalls() int64 { return c.reads.Load() + c.writes.Load() }

// bytesPerSyscall returns the mean bytes moved per call, 0 with none.
func (c *countingConn) bytesPerSyscall() float64 {
	n := c.syscalls()
	if n == 0 {
		return 0
	}
	return float64(c.bytes.Load()) / float64(n)
}

// reset zeroes the counts, so a pass counts only its own traffic and
// not the handshake before it.
func (c *countingConn) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.bytes.Store(0)
}
