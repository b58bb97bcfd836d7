package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/errscope/grid/internal/chirp"
	"github.com/errscope/grid/internal/javaio"
	"github.com/errscope/grid/internal/remoteio"
	"github.com/errscope/grid/internal/vfs"
	"github.com/errscope/grid/internal/wire"
)

// The java-io workload: one closed-loop client copies a seeded input
// file on the submit machine to an output file, chunk by chunk, through
// the Figure 2 path — javaio.Library → Chirp proxy (binary mode) →
// remoteio.ChirpBackend → shadow channel (secure mode) → vfs.
const (
	ioChunk   = 4 << 10
	ioFileLen = 16 << 20
	ioInPath  = "/home/user/input.dat"
	ioOutPath = "/home/user/output.dat"
	ioCookie  = "perfbench-job-cookie"
	// ioHeapEvery is how many operations pass between heap samples.
	ioHeapEvery = 64
)

var ioKey = []byte("perfbench-shadow-key")

// ioRig is one job's live data path: the shadow's remote I/O server,
// the channel to it, the starter's Chirp proxy and the job's session.
type ioRig struct {
	shadow  *remoteio.Server
	channel *remoteio.Client
	proxy   *chirp.Server
	session *chirp.Client
	lib     *javaio.Library
}

// dialRig listens, dials and handshakes both hops.  With tr set, the
// backend is timed and both client connections are counted.
func dialRig(fs *vfs.FileSystem, tr *ioTrace) (*ioRig, error) {
	g := &ioRig{shadow: remoteio.NewServer(fs, ioKey)}
	g.shadow.Mode = wire.ModeSecure
	addr, err := g.shadow.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("shadow listen: %w", err)
	}
	conn, err := dial(addr, tr != nil)
	if err != nil {
		g.close()
		return nil, err
	}
	if tr != nil {
		tr.remoteio = conn.(*countingConn)
	}
	g.channel, err = remoteio.NewClient(conn, ioKey, remoteio.DialOptions{Mode: wire.ModeSecure})
	if err != nil {
		conn.Close()
		g.close()
		return nil, fmt.Errorf("shadow handshake: %w", err)
	}
	var backend chirp.Backend = &remoteio.ChirpBackend{Client: g.channel}
	if tr != nil {
		backend = &timedBackend{Backend: backend, tr: tr}
	}
	g.proxy = chirp.NewServer(backend, ioCookie)
	paddr, err := g.proxy.Listen("127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	pconn, err := dial(paddr, tr != nil)
	if err != nil {
		g.close()
		return nil, err
	}
	if tr != nil {
		tr.chirp = pconn.(*countingConn)
	}
	g.session, err = chirp.NewClient(pconn, ioCookie, chirp.DialOptions{Mode: wire.ModeBinary})
	if err != nil {
		pconn.Close()
		g.close()
		return nil, fmt.Errorf("proxy handshake: %w", err)
	}
	g.lib = javaio.New(javaio.NewChirpTransport(g.session))
	return g, nil
}

// dial connects to addr, wrapping the connection in a countingConn
// when count is set.
func dial(addr string, count bool) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if count {
		return &countingConn{Conn: conn}, nil
	}
	return conn, nil
}

// close tears the rig down; the servers wait for their connection
// goroutines to exit.
func (g *ioRig) close() {
	if g.session != nil {
		g.session.Close()
	}
	if g.proxy != nil {
		g.proxy.Close()
	}
	if g.channel != nil {
		g.channel.Close()
	}
	g.shadow.Close()
}

// ioTrace collects the spans of one traced pass.  The client sets the
// current operation before each call; the backend, running on the
// proxy's goroutine, parents its spans to it.
type ioTrace struct {
	log             spanLog
	nextID          atomic.Int64
	req, parent     atomic.Int64
	chirp, remoteio *countingConn
}

// timedBackend times every call the proxy makes into the shadow
// channel as a child span of the java-io operation that caused it.
type timedBackend struct {
	chirp.Backend
	tr *ioTrace
}

// timed records fn as a span named name under the current operation.
func (tr *ioTrace) timed(name string, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	tr.log.add(span{
		ID:     tr.nextID.Add(1),
		Parent: tr.parent.Load(),
		Req:    tr.req.Load(),
		Name:   name,
		Start:  tr.log.since(start),
		End:    tr.log.since(end),
	})
}

func (b *timedBackend) Open(path string, flags chirp.OpenFlags) (chirp.File, error) {
	var f chirp.File
	var err error
	b.tr.timed("remoteio.open", func() { f, err = b.Backend.Open(path, flags) })
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, tr: b.tr}, nil
}

type timedFile struct {
	chirp.File
	tr *ioTrace
}

func (f *timedFile) ReadAt(offset int64, length int) ([]byte, error) {
	var data []byte
	var err error
	f.tr.timed("remoteio.read", func() { data, err = f.File.ReadAt(offset, length) })
	return data, err
}

func (f *timedFile) WriteAt(offset int64, data []byte) (int, error) {
	var n int
	var err error
	f.tr.timed("remoteio.write", func() { n, err = f.File.WriteAt(offset, data) })
	return n, err
}

// ioPass is what one copy of the input file measured.
type ioPass struct {
	setup, copy time.Duration
	latUS       []float64
	ops, failed int
	peakHeap    uint64
	checkErr    error
}

// copyPass sets up a rig, copies the input to the output in chunks,
// tears the rig down and checks the output on the submit side.
func copyPass(fs *vfs.FileSystem, want []byte, tr *ioTrace) (*ioPass, error) {
	r := &ioPass{latUS: make([]float64, 0, 2*len(want)/ioChunk+2)}
	t0 := time.Now()
	g, err := dialRig(fs, tr)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	if tr != nil {
		tr.chirp.reset()
		tr.remoteio.reset()
		tr.log.base = time.Now()
	}

	op := func(name string, fn func() bool) {
		start := time.Now()
		var id int64
		if tr != nil {
			id = tr.nextID.Add(1)
			tr.req.Store(int64(r.ops + 1))
			tr.parent.Store(id)
		}
		ok := fn()
		end := time.Now()
		if tr != nil {
			tr.log.add(span{ID: id, Req: int64(r.ops + 1), Name: name,
				Start: tr.log.since(start), End: tr.log.since(end)})
		}
		r.latUS = append(r.latUS, float64(end.Sub(start).Nanoseconds())/1e3)
		r.ops++
		if !ok {
			r.failed++
		}
		if r.ops%ioHeapEvery == 0 {
			r.peakHeap = max(r.peakHeap, heapLive())
		}
	}
	start := time.Now()
	for off := 0; off < len(want); off += ioChunk {
		end := min(off+ioChunk, len(want))
		var data []byte
		op("javaio.read", func() bool {
			var err error
			data, err = g.lib.Read(ioInPath, int64(off), end-off)
			return err == nil && bytes.Equal(data, want[off:end])
		})
		op("javaio.write", func() bool {
			n, err := g.lib.Write(ioOutPath, int64(off), data)
			return err == nil && n == len(data)
		})
	}
	r.copy = time.Since(start)
	r.peakHeap = max(r.peakHeap, heapLive())
	g.close()

	got, err := fs.ReadFile(ioOutPath)
	switch {
	case err != nil:
		r.checkErr = fmt.Errorf("read output: %w", err)
	case !bytes.Equal(got, want):
		r.checkErr = fmt.Errorf("output (%d bytes) differs from input (%d bytes)", len(got), len(want))
	}
	if err := fs.Unlink(ioOutPath); err != nil && r.checkErr == nil {
		r.checkErr = fmt.Errorf("remove output: %w", err)
	}
	return r, nil
}

// ioInput stages the seeded input file on a fresh submit-side file
// system.
func ioInput(seed int64) (*vfs.FileSystem, []byte, error) {
	want := make([]byte, ioFileLen)
	rand.New(rand.NewSource(seed)).Read(want)
	fs := vfs.New()
	if err := fs.WriteFile(ioInPath, want); err != nil {
		return nil, nil, fmt.Errorf("stage input: %w", err)
	}
	return fs, want, nil
}

func javaIOWorkload(seed int64, budget time.Duration, trace bool) (*result, error) {
	fingerprint(1)
	fs, want, err := ioInput(seed)
	if err != nil {
		return nil, err
	}
	if trace {
		return traceIO(fs, want, budget)
	}
	res := newResult()
	e2e := newPassStats(budget)
	for !e2e.enough() {
		freshHeap()
		ticks := readCPUTicks()
		r, err := copyPass(fs, want, nil)
		if err != nil {
			return nil, err
		}
		steal := stealShare(ticks, readCPUTicks())
		res.account(r.ops, r.failed, r.checkErr)
		if err := e2e.addPass(r.setup, r.copy, r.ops-r.failed, r.latUS, steal); err != nil {
			return nil, err
		}
		e2e.heaps = append(e2e.heaps, float64(r.peakHeap)/(1<<20))
	}
	for e2e.setupCount() < minSetups {
		freshHeap()
		t0 := time.Now()
		g, err := dialRig(fs, nil)
		if err != nil {
			return nil, err
		}
		e2e.setups = append(e2e.setups, time.Since(t0).Seconds())
		g.close()
	}
	res.endToEnd(e2e)
	return res, nil
}

// traceIO alternates an untraced pass with a traced one until the
// budget is spent, reports the per-layer metrics as medians over
// cycles, and writes the last traced pass's spans to
// .bench_build/spans/java-io.jsonl.
func traceIO(fs *vfs.FileSystem, want []byte, budget time.Duration) (*result, error) {
	res := newResult()
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	var last []span
	var lat []float64
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < budget; cycle++ {
		var un *ioPass
		var unErr error
		proc := measureProcess(func() { un, unErr = copyPass(fs, want, nil) })
		if unErr != nil {
			return nil, unErr
		}
		res.account(un.ops, un.failed, un.checkErr)
		lat = append(lat, un.latUS...)
		freshHeap()
		tr := &ioTrace{}
		r, err := copyPass(fs, want, tr)
		if err != nil {
			return nil, err
		}
		res.account(r.ops, r.failed, r.checkErr)

		totals := map[string]time.Duration{}
		counts := map[string]int{}
		for _, sp := range tr.log.spans {
			totals[sp.Name] += time.Duration(sp.End - sp.Start)
			counts[sp.Name]++
		}
		backend, calls := time.Duration(0), 0
		for _, n := range []string{"remoteio.open", "remoteio.read", "remoteio.write"} {
			backend += totals[n]
			calls += counts[n]
		}
		add("javaio.read_s", totals["javaio.read"].Seconds())
		add("javaio.reads", float64(counts["javaio.read"]))
		add("javaio.write_s", totals["javaio.write"].Seconds())
		add("javaio.writes", float64(counts["javaio.write"]))
		add("remoteio.backend_s", backend.Seconds())
		add("remoteio.backend_calls", float64(calls))
		add("chirp.self_s", (selfTimes(tr.log.spans, "javaio.read") + selfTimes(tr.log.spans, "javaio.write")).Seconds())
		add("wire.chirp.syscalls", float64(tr.chirp.syscalls()))
		add("wire.chirp.bytes_per_syscall", tr.chirp.bytesPerSyscall())
		add("wire.remoteio.syscalls", float64(tr.remoteio.syscalls()))
		add("wire.remoteio.bytes_per_syscall", tr.remoteio.bytesPerSyscall())
		add("run.untraced_s", un.copy.Seconds())
		add("run.traced_s", r.copy.Seconds())
		add("trace.overhead_s", (r.copy - un.copy).Seconds())
		proc.add(add, un.setup+un.copy)
		last = tr.log.spans
	}
	layer["op.p99_us"] = []float64{tailLatency(lat)}
	res.perLayer(layer)
	if err := writeSpans("java-io", last); err != nil {
		return nil, err
	}
	return res, nil
}

// writeSpans writes spans as JSON lines under .bench_build/spans.
func writeSpans(workload string, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".jsonl"), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
