package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

func TestClassifierAndStepLabel(t *testing.T) {
	c := classifier{
		schedds: map[string]bool{"schedd": true},
		startds: map[string]bool{"c0001": true},
	}
	for to, want := range map[string]string{
		"shadow:schedd:1":  labelShadow,
		"starter:c0001:3":  labelStarter,
		"matchmaker":       labelMatchmaker,
		"schedd":           labelSchedd,
		"c0001":            labelStartd,
		"flockd":           labelOther,
		"shadowy-neighbor": labelOther,
	} {
		if got := c.kind(to); got != want {
			t.Errorf("kind(%q) = %q, want %q", to, got, want)
		}
	}
	for _, tc := range []struct{ delivery, first, want string }{
		{labelShadow, "", labelShadow},
		{"", "matchmaker.cycles", labelNegotiate},
		{"", "bus.sent", labelTimer},
		{"", "", labelTimer},
		// A delivery that happens to bump the cycle counter first is
		// still a delivery.
		{labelStartd, "matchmaker.cycles", labelStartd},
	} {
		if got := stepLabel(tc.delivery, tc.first); got != tc.want {
			t.Errorf("stepLabel(%q, %q) = %q, want %q", tc.delivery, tc.first, got, tc.want)
		}
	}
}

// TestStepperMatchesRunUntil checks the traced driver against the
// untraced one on a small pool: identical dispositions, every step
// attributed, and labelled times inside the run.
func TestStepperMatchesRunUntil(t *testing.T) {
	for _, w := range []simSpec{
		{machines: 8, jobs: 32, compute: 5 * time.Minute},
		{machines: 8, jobs: 16, compute: 30 * time.Minute, ops: true},
	} {
		un, err := runSim(w, 7, 1, passTimed)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runSim(w, 7, 1, passTraced)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*simPass{un, tr} {
			if r.failed != 0 || r.checkErr != nil {
				t.Fatalf("ops=%v: %d failed, check: %v", w.ops, r.failed, r.checkErr)
			}
		}
		if tr.digest != un.digest {
			t.Errorf("ops=%v: traced dispositions differ from RunUntil's", w.ops)
		}
		var steps int64
		for _, l := range tr.st.layers {
			steps += l.n
		}
		if steps != tr.events {
			t.Errorf("ops=%v: %d steps attributed, %d events ran", w.ops, steps, tr.events)
		}
		if tr.st.layer(labelNegotiate).n != int64(tr.cycles) {
			t.Errorf("ops=%v: %d negotiation steps, %d cycles", w.ops, tr.st.layer(labelNegotiate).n, tr.cycles)
		}
		if got := tr.st.stepTotal() + tr.submit + tr.pump; got > tr.run {
			t.Errorf("ops=%v: labelled %v exceeds the run %v", w.ops, got, tr.run)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond: not reportable
		{2000, 0.99, 1980, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := &countingConn{Conn: a}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 5)
		_, err := io.ReadFull(b, buf)
		if err == nil {
			_, err = b.Write([]byte("pong!!!"))
		}
		done <- err
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.writes.Load() != 1 || c.reads.Load() < 1 || c.bytes.Load() != 12 {
		t.Fatalf("writes=%d reads=%d bytes=%d, want 1, >=1, 12",
			c.writes.Load(), c.reads.Load(), c.bytes.Load())
	}
	if got, want := c.bytesPerSyscall(), 12/float64(c.syscalls()); got != want {
		t.Errorf("bytesPerSyscall = %v, want %v", got, want)
	}
	c.reset()
	if c.syscalls() != 0 || c.bytesPerSyscall() != 0 {
		t.Errorf("after reset: %d calls, %v bytes per call", c.syscalls(), c.bytesPerSyscall())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "javaio.read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "remoteio.open", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "remoteio.read", Start: 50, End: 120}, // clipped at 100
		{ID: 4, Req: 2, Name: "javaio.write", Start: 200, End: 260},
		{ID: 5, Parent: 4, Req: 2, Name: "remoteio.write", Start: 210, End: 250},
	}
	if got := selfTimes(spans, "javaio.read"); got != 30 {
		t.Errorf("read self time = %d, want 30", got)
	}
	if got := selfTimes(spans, "javaio.write"); got != 20 {
		t.Errorf("write self time = %d, want 20", got)
	}
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner
// naming the same workloads and metrics with the same units.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the runner", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the runner %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for i, e := range b.EndToEnd {
		if i < len(endToEndUnits) && (e.Name != endToEndUnits[i].name || e.Unit != endToEndUnits[i].unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, runner %v", i, e, endToEndUnits[i])
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the runner %d", len(b.PerLayer), len(perLayerUnits))
	}
	for _, p := range b.PerLayer {
		if unit, ok := perLayerUnits[p.Name]; !ok || unit != p.Unit {
			t.Errorf("per-layer %s [%s]: runner has [%s] (known: %v)", p.Name, p.Unit, unit, ok)
		}
	}
}

func TestStealShare(t *testing.T) {
	a := parseCPUTicks("cpu  100 0 50 800 10 0 5 35 0 0\n")
	b := parseCPUTicks("cpu  150 0 60 900 10 0 5 75 0 0\n")
	if !a.ok || a.steal != 35 || a.total != 1000 {
		t.Fatalf("parsed %+v, want steal 35 of 1000", a)
	}
	if got := stealShare(a, b); got != 0.2 {
		t.Errorf("stealShare = %v, want 0.2 (40 of 200 ticks)", got)
	}
	for _, line := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if parseCPUTicks(line).ok {
			t.Errorf("parseCPUTicks(%q) accepted", line)
		}
	}
	if got := stealShare(cpuTicks{}, b); got != 0 {
		t.Errorf("stealShare without a reading = %v, want 0", got)
	}
}

// TestPassSelection checks which passes the medians use: calm passes,
// or the least stolen when too few are calm.
func TestPassSelection(t *testing.T) {
	s := newPassStats(0)
	for i, steal := range []float64{0.30, 0.01, 0.25, 0.00, 0.10} {
		lat := make([]float64, 21)
		if err := s.addPass(time.Millisecond, time.Second, 100*(i+1), lat, steal); err != nil {
			t.Fatal(err)
		}
	}
	kept := s.kept()
	if len(kept) != minPasses || kept[0].steal != 0.00 || kept[1].steal != 0.01 || kept[2].steal != 0.10 {
		t.Errorf("kept %+v, want the three least stolen", kept)
	}
	if s.enough() {
		t.Error("two calm passes of a zero budget were enough; the run should measure on")
	}
	if err := s.addPass(time.Millisecond, time.Second, 600, make([]float64, 21), 0.02); err != nil {
		t.Fatal(err)
	}
	if kept := s.kept(); len(kept) != 3 || kept[2].rate != 600 {
		t.Errorf("kept %+v, want the three calm passes", kept)
	}
	if !s.enough() {
		t.Error("three calm passes covering the budget were not enough")
	}
}
