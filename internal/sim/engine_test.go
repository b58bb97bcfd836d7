package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != Time(3*time.Second) {
		t.Errorf("now = %v", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events at the same instant run in scheduling order.
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(time.Second), func() { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var at []Time
	e.After(time.Second, func() {
		at = append(at, e.Now())
		e.After(time.Second, func() {
			at = append(at, e.Now())
		})
	})
	e.Run()
	if len(at) != 2 || at[0] != Time(time.Second) || at[1] != Time(2*time.Second) {
		t.Errorf("at = %v", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestNegativeAfterMeansNow(t *testing.T) {
	e := New(1)
	ran := false
	e.After(-5*time.Second, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Errorf("ran=%v now=%v", ran, e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.After(time.Second, func() { ran = true })
	if !tm.Cancel() {
		t.Error("first cancel should report pending")
	}
	if tm.Cancel() {
		t.Error("second cancel should report not pending")
	}
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Cancel after firing.
	tm2 := e.After(time.Second, func() {})
	e.Run()
	if tm2.Cancel() {
		t.Error("cancel after firing should report not pending")
	}
	var nilTimer *Timer
	if nilTimer.Cancel() {
		t.Error("nil timer cancel")
	}
}

func TestRunUntilAndRunFor(t *testing.T) {
	e := New(1)
	var fired []int
	e.After(1*time.Second, func() { fired = append(fired, 1) })
	e.After(5*time.Second, func() { fired = append(fired, 5) })
	e.RunUntil(Time(2 * time.Second))
	if len(fired) != 1 || e.Now() != Time(2*time.Second) {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
	e.RunFor(10 * time.Second)
	if len(fired) != 2 || e.Now() != Time(12*time.Second) {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
	// RunUntil with an empty queue still advances the clock.
	e.RunUntil(Time(20 * time.Second))
	if e.Now() != Time(20*time.Second) {
		t.Errorf("now=%v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("count = %d", count)
	}
	// Run again resumes.
	e.Run()
	if count != 10 {
		t.Errorf("count after resume = %d", count)
	}
}

func TestEvery(t *testing.T) {
	e := New(1)
	var ticks []Time
	stop := e.Every(time.Second, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(Time(3500 * time.Millisecond))
	stop()
	e.RunFor(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, tk := range ticks {
		if tk != Time(time.Duration(i+1)*time.Second) {
			t.Errorf("tick %d at %v", i, tk)
		}
	}
}

func TestEveryZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) should panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterminismProperty(t *testing.T) {
	// The same seed must yield the identical event trace.
	run := func(seed int64) []int {
		e := New(seed)
		var trace []int
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			n := e.Rand().Intn(3) + 1
			for i := 0; i < n; i++ {
				d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
				v := e.Rand().Intn(100)
				e.After(d, func() {
					trace = append(trace, v)
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		e.Run()
		return trace
	}
	prop := func(seed int64) bool {
		a := run(seed)
		b := run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(90 * time.Second)
	if tm.String() != "1m30s" {
		t.Errorf("String = %q", tm.String())
	}
	if tm.Sub(Time(30*time.Second)) != time.Minute {
		t.Error("Sub")
	}
}

// TestRunUntilStopKeepsClock checks, on both engines, that a RunUntil
// ended by Stop leaves the clock at the stopping event.  Clamping to
// the deadline would put the clock past the events still queued, and
// the next Step would move it backwards.
func TestRunUntilStopKeepsClock(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(1)
		e.SetWorkers(workers)
		e.At(Time(time.Second), e.Stop)
		e.At(Time(5*time.Second), func() {})
		e.RunUntil(Time(10 * time.Second))
		if e.Now() != Time(time.Second) {
			t.Errorf("workers=%d: Now()=%v after a stopped RunUntil, want 1s", workers, e.Now())
		}
		if !e.Step() || e.Now() != Time(5*time.Second) {
			t.Errorf("workers=%d: Now()=%v after the next Step, want 5s", workers, e.Now())
		}
		e.RunUntil(Time(10 * time.Second))
		if e.Now() != Time(10*time.Second) {
			t.Errorf("workers=%d: Now()=%v after an unstopped RunUntil, want the 10s deadline", workers, e.Now())
		}
	}
}
