package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// On a virtual machine the hypervisor can take CPU time away from the
// guest ("steal").  On the shared two-CPU VM this benchmark was written
// on, minute-long phases of 10-30 % steal slowed every sim workload by
// up to half, which no run length within the time budget averages
// away.  The timed loops therefore measure steal over each pass and
// leave out of the medians the passes the hypervisor disturbed,
// measuring on for a bounded time to replace them.

// stealLimit is the share of CPU time stolen over a pass above which
// the pass is left out.  Calm phases steal well under 1 %.
const stealLimit = 0.02

// cpuTicks is a reading of the machine's CPU time counters.
type cpuTicks struct {
	steal, total uint64
	ok           bool
}

// readCPUTicks reads the aggregate "cpu" line of /proc/stat.  ok is
// false where the file is missing or unparsable (outside Linux), and
// then no pass is ever left out.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTicks{}
	}
	return parseCPUTicks(line)
}

// parseCPUTicks parses "cpu user nice system idle iowait irq softirq
// steal ..."; steal is the eighth counter.
func parseCPUTicks(line string) cpuTicks {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShare returns the share of CPU time stolen between two
// readings, or 0 when either is unavailable.
func stealShare(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
