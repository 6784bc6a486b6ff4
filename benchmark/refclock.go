package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// refUnit is the unit of reference seconds: a wall time is multiplied by
// refUnit ÷ the median time of the reference kernel runs that follow it.
// It is about the kernel's time on the sizing host when that host is
// quiet, so there reference seconds read close to wall seconds.
const refUnit = 10 * time.Millisecond

// refClock times the reference kernel: fixed CPU work on simWorkers
// goroutines (hashing, random updates of a 512 KiB table, and a small
// switch-dispatch interpreter) that shares no code with the simulator, so
// no change to the simulator moves it.
//
// It exists because the sizing host is a 2-vCPU VM whose neighbours slow
// everything on it by 10-40% for tens of seconds to minutes at a time:
// across ten runs, medians of raw wall time spread by 8-30%. Run right
// after each rep, the kernel slows in step with it, and the same medians
// in reference seconds spread by 3-6%.
type refClock struct {
	samples []float64 // seconds per kernel run
	work    [simWorkers]refWork
}

// refWork is one goroutine's share of the kernel, with its own memory.
type refWork struct {
	buf   []byte
	table []uint32
	mem   []int32
	sink  uint64
}

const (
	// The interpreter, closest in kind to the simulator, takes about 70%
	// of the kernel's time; with that share the kernel tracked the
	// workloads best over an 8-minute noisy stretch (window spreads 5-8%
	// against 8-12% with equal shares and 30% raw).
	refHashes     = 34        // sha256 over buf
	refTableOps   = 700_000   // random table updates
	refInterpOps  = 2_700_000 // interpreted instructions
	refTableWords = 1 << 17
	refMemWords   = 1 << 14
)

// refInsn is one instruction of the interpreter's fixed program.
type refInsn struct {
	op      uint8
	a, b, c int32
}

var refProgram = func() []refInsn {
	rng := rand.New(rand.NewPCG(1, 2))
	p := make([]refInsn, 256)
	for i := range p {
		p[i] = refInsn{uint8(rng.IntN(4)), rng.Int32N(refMemWords), rng.Int32N(int32(len(p))), rng.Int32N(7) + 1}
	}
	return p
}()

func newRefClock() *refClock {
	c := &refClock{}
	for i := range c.work {
		c.work[i] = refWork{buf: make([]byte, 64<<10), table: make([]uint32, refTableWords), mem: make([]int32, refMemWords)}
	}
	return c
}

// sampleFor runs the kernel until d has passed, at least once, and
// returns the factor that converts the wall seconds just before it to
// reference seconds: refUnit ÷ the median of these samples. It collects
// garbage first, so the simulator's garbage is not collected on the
// kernel's time.
func (c *refClock) sampleFor(d time.Duration) float64 {
	runtime.GC()
	start := time.Now()
	var xs []float64
	for {
		xs = append(xs, c.once())
		if time.Since(start) >= d {
			break
		}
	}
	c.samples = append(c.samples, xs...)
	return refUnit.Seconds() / median(xs)
}

// once runs the kernel and returns its wall time in seconds.
func (c *refClock) once() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range c.work {
		wg.Add(1)
		go func(w *refWork) {
			defer wg.Done()
			w.run()
		}(&c.work[i])
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// refShare is how long to sample the kernel after a timed stretch of
// seconds: a tenth of it, so the kernel costs a tenth of the run.
func refShare(seconds float64) time.Duration {
	return time.Duration(seconds / 10 * float64(time.Second))
}

func (w *refWork) run() {
	for i := 0; i < refHashes; i++ {
		h := sha256.Sum256(w.buf)
		w.buf[i] ^= h[0]
	}

	x := uint64(88172645463325252)
	for i := 0; i < refTableOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w.table[x&(refTableWords-1)] += uint32(x)
	}

	const mask = refMemWords - 1
	pc, acc := 0, int32(1)
	for i := 0; i < refInterpOps; i++ {
		in := refProgram[pc]
		switch in.op {
		case 0:
			acc += w.mem[(in.a+acc)&mask]
		case 1:
			w.mem[(in.b+acc)&mask] = acc
		case 2:
			acc = acc*in.c + in.a
		case 3:
			if acc&1 == 0 {
				pc = int(in.b)
				continue
			}
		}
		if pc++; pc == len(refProgram) {
			pc = 0
		}
	}
	w.sink += x + uint64(acc)
}
