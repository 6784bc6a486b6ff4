package task

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/mcu"
)

// sumProgram builds a two-task program: task 0 accumulates i into a shared
// sum for `per` iterations per task invocation, then transitions to itself
// until n iterations are done; task 1 squares the sum. Returns the runtime
// and the shared region.
func sumProgram(t *testing.T, dev *mcu.Device, n, per int) (*Runtime, func() (sum, sq, i int64)) {
	t.Helper()
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	shared := dev.FRAM.MustAlloc("shared", 3, 2) // [i, sum, square]
	rt.Share(shared)

	var squareID ID
	loopID := rt.Add("loop", func(c *Ctx) ID {
		for k := 0; k < per; k++ {
			i := c.Read(shared, 0)
			if i >= int64(n) {
				return squareID
			}
			c.Write(shared, 1, c.Read(shared, 1)+i)
			c.Write(shared, 0, i+1)
		}
		return 0 // self-transition
	})
	squareID = rt.Add("square", func(c *Ctx) ID {
		s := c.Read(shared, 1)
		c.Dev().Op(mcu.OpMul)
		c.Write(shared, 2, s*s)
		return Done
	})
	_ = loopID
	return rt, func() (int64, int64, int64) {
		return shared.Get(1), shared.Get(2), shared.Get(0)
	}
}

func TestRunsToCompletionContinuous(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, result := sumProgram(t, dev, 10, 4)
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	sum, sq, _ := result()
	if sum != 45 || sq != 45*45 {
		t.Errorf("sum=%d sq=%d, want 45/2025", sum, sq)
	}
}

func TestIdenticalResultUnderFailures(t *testing.T) {
	// Sweep failure periods; every run must produce exactly the
	// continuous-power answer.
	for period := 5; period < 200; period += 7 {
		dev := mcu.New(energy.NewFailAfterOps(period, period))
		rt, result := sumProgram(t, dev, 10, 3)
		rt.Start(0)
		err := rt.Run()
		if errors.Is(err, mcu.ErrDoesNotComplete) {
			continue // too-small budget is a legitimate outcome for tiny periods
		}
		if err != nil {
			t.Fatal(err)
		}
		sum, sq, i := result()
		if sum != 45 || sq != 2025 || i != 10 {
			t.Fatalf("period %d: sum=%d sq=%d i=%d (want 45/2025/10) after %d reboots",
				period, sum, sq, i, dev.Stats().Reboots)
		}
	}
}

// Property: for arbitrary failure schedules the committed result never
// reflects a partial task (atomicity).
func TestTaskAtomicityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		period := int(seed%150) + 20
		dev := mcu.New(energy.NewFailAfterOps(period, period))
		rt, err := New(dev, 16)
		if err != nil {
			return false
		}
		shared := dev.FRAM.MustAlloc("pair", 2, 2)
		rt.Share(shared)
		// The task writes a pair that must always be committed together.
		rt.Add("pair", func(c *Ctx) ID {
			g := c.Read(shared, 0)
			if g >= 5 {
				return Done
			}
			c.Write(shared, 0, g+1)
			for i := 0; i < 10; i++ {
				c.Dev().Op(mcu.OpAdd)
			}
			c.Write(shared, 1, (g+1)*100)
			return 0
		})
		rt.Start(0)
		if err := rt.Run(); err != nil {
			return errors.Is(err, mcu.ErrDoesNotComplete)
		}
		// Invariant: shared[1] == shared[0]*100 exactly (no torn commit).
		return shared.Get(1) == shared.Get(0)*100 && shared.Get(0) == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadOwnWrite(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, _ := New(dev, 16)
	shared := dev.FRAM.MustAlloc("x", 1, 2)
	rt.Share(shared)
	shared.Put(0, 7)
	var sawOwnWrite bool
	rt.Add("t", func(c *Ctx) ID {
		c.Write(shared, 0, 42)
		sawOwnWrite = c.Read(shared, 0) == 42
		return Done
	})
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawOwnWrite {
		t.Error("task must observe its own uncommitted writes")
	}
	if shared.Get(0) != 42 {
		t.Error("write not committed")
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	// Fail the task after it has logged a write; the home location must
	// still hold the old value on restart.
	dev := mcu.New(energy.NewFailAfterOps(1000, 1000))
	rt, _ := New(dev, 16)
	shared := dev.FRAM.MustAlloc("x", 1, 2)
	rt.Share(shared)
	shared.Put(0, 7)
	attempt := 0
	rt.Add("t", func(c *Ctx) ID {
		attempt++
		c.Write(shared, 0, 99)
		if attempt == 1 {
			// Burn the rest of the budget to force a failure mid-task.
			for {
				c.Dev().Op(mcu.OpAdd)
			}
		}
		if c.Read(shared, 0) != 99 {
			t.Error("log lost own write")
		}
		return Done
	})
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if attempt < 2 {
		t.Fatal("expected a retry")
	}
	if shared.Get(0) != 99 {
		t.Error("final commit missing")
	}
}

func TestWARDataSafeAcrossFailure(t *testing.T) {
	// The classic WAR hazard: task reads x then writes x. If the write hit
	// home memory before a failure, re-execution would see the new value
	// and double-apply. The redo log must prevent that.
	for period := 10; period < 120; period += 3 {
		dev := mcu.New(energy.NewFailAfterOps(period, period))
		rt, _ := New(dev, 16)
		x := dev.FRAM.MustAlloc("x", 1, 2)
		rt.Share(x)
		x.Put(0, 1)
		rt.Add("double", func(c *Ctx) ID {
			v := c.Read(x, 0)
			// Interleave compute so failures land between read and write.
			for i := 0; i < 20; i++ {
				c.Dev().Op(mcu.OpAdd)
			}
			c.Write(x, 0, v*2)
			g := c.Read(x, 0) // generation check via self-read
			if g != v*2 {
				t.Fatal("read-own-write broken")
			}
			if v*2 >= 16 {
				return Done
			}
			return 0
		})
		rt.Start(0)
		err := rt.Run()
		if errors.Is(err, mcu.ErrDoesNotComplete) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if x.Get(0) != 16 {
			t.Fatalf("period %d: x = %d, want exactly 16 (no double-apply)", period, x.Get(0))
		}
	}
}

func TestNonTerminationDetected(t *testing.T) {
	// A task demanding more ops than the budget, self-transitioning.
	dev := mcu.New(energy.NewFailAfterOps(50, 50))
	rt, _ := New(dev, 16)
	rt.Add("hog", func(c *Ctx) ID {
		for i := 0; i < 500; i++ {
			c.Dev().Op(mcu.OpAdd)
		}
		return Done
	})
	rt.Start(0)
	if err := rt.Run(); !errors.Is(err, mcu.ErrDoesNotComplete) {
		t.Errorf("err = %v, want ErrDoesNotComplete", err)
	}
}

// TestNewRejectsEmptyLog: a redo log must have room for an entry; New
// allocates nothing for a size that does not.
func TestNewRejectsEmptyLog(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	for _, n := range []int{0, -1} {
		if rt, err := New(dev, n); err == nil || rt != nil {
			t.Errorf("New(dev, %d) = %v, %v; want an error", n, rt, err)
		}
	}
	if dev.FRAM.Regions() != 0 {
		t.Errorf("rejected runtimes left %d FRAM regions", dev.FRAM.Regions())
	}
}

func TestLogOverflowPanics(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, _ := New(dev, 4)
	shared := dev.FRAM.MustAlloc("arr", 16, 2)
	rt.Share(shared)
	rt.Add("big", func(c *Ctx) ID {
		for i := 0; i < 16; i++ {
			c.Write(shared, i, 1)
		}
		return Done
	})
	rt.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("log overflow should panic")
		}
	}()
	rt.Run()
}

func TestUnregisteredRegionPanics(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, _ := New(dev, 4)
	r := dev.FRAM.MustAlloc("rogue", 1, 2)
	rt.Add("t", func(c *Ctx) ID {
		c.Write(r, 0, 1)
		return Done
	})
	rt.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("unregistered shared access should panic")
		}
	}()
	rt.Run()
}

func TestTransitionCostCharged(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, _ := New(dev, 8)
	rt.Add("a", func(c *Ctx) ID { return 1 })
	rt.Add("b", func(c *Ctx) ID { return Done })
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().OpCount[mcu.OpDispatch] != 2 {
		t.Errorf("transitions = %d, want 2", dev.Stats().OpCount[mcu.OpDispatch])
	}
}

func TestTaskName(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, _ := New(dev, 4)
	id := rt.Add("hello", func(c *Ctx) ID { return Done })
	if rt.TaskName(id) != "hello" || rt.TaskName(Done) != "done" {
		t.Error("task names wrong")
	}
}

func TestOverwriteReusesLogSlot(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, _ := New(dev, 2) // tiny log: repeated writes must reuse one slot
	shared := dev.FRAM.MustAlloc("x", 1, 2)
	rt.Share(shared)
	rt.Add("t", func(c *Ctx) ID {
		for i := 0; i < 10; i++ {
			c.Write(shared, 0, int64(i))
		}
		return Done
	})
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if shared.Get(0) != 9 {
		t.Errorf("x = %d, want 9", shared.Get(0))
	}
}

func BenchmarkTaskTransition(b *testing.B) {
	dev := mcu.New(energy.Continuous{})
	rt, err := New(dev, 16)
	if err != nil {
		b.Fatal(err)
	}
	shared := dev.FRAM.MustAlloc("x", 1, 2)
	rt.Share(shared)
	rt.Add("bounce", func(c *Ctx) ID {
		v := c.Read(shared, 0)
		c.Write(shared, 0, v+1)
		if v >= 99 {
			return Done
		}
		return 0
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared.Put(0, 0)
		rt.Start(0)
		if err := rt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
