package main

// Host-speed calibration. On a shared VM the same code runs tens of
// percent faster or slower from one minute to the next, in CPU time as
// well as in wall time, so two sets of runs of unchanged code can
// disagree by more than any useful bound. A run therefore times a fixed
// kernel that does not touch the code under test whenever the fleet is
// idle (before the set-ups, after them and between the measured
// slices), and scales its time metrics to a reference host that runs
// that kernel in calibNominalMs of CPU time. It also reads the time the
// host took away (steal time), which CPU time does not count but the
// clock does.

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calibNominalMs is the kernel's CPU time on the reference host the
	// scaled metrics are quoted for: a fixed unit, about what a 2 vCPU
	// Xeon VM at 2.1 GHz reads on a busy host.
	calibNominalMs = 4.0
	// calibReps is how many times one calibration point runs the kernel.
	calibReps = 10
)

// calibSrc is the kernel's fixed input: 16,384 seeded floats.
var calibSrc = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 1<<14)
	for i := range src {
		src[i] = rng.Float64()
	}
	return src
}()

// calib collects a run's kernel timings: for each calibration point,
// the CPU ms one kernel thread took, calibReps times per thread.
type calib struct {
	pts [][]float64
}

// sample runs the kernel calibReps times. Each time, two goroutines,
// one per CPU the benchmark may use and each locked to its own thread,
// sort a copy of calibSrc twice and read their own thread's CPU time,
// which time the host takes away does not count.
func (c *calib) sample() {
	par := min(2, runtime.GOMAXPROCS(0))
	var pt []float64
	for r := 0; r < calibReps; r++ {
		cpu := make([]float64, par)
		var wg sync.WaitGroup
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				buf := make([]float64, len(calibSrc))
				c0 := threadCPU()
				for k := 0; k < 2; k++ {
					copy(buf, calibSrc)
					sort.Float64s(buf)
				}
				cpu[g] = float64(threadCPU()-c0) / float64(time.Millisecond)
			}(g)
		}
		wg.Wait()
		pt = append(pt, cpu...)
	}
	c.pts = append(c.pts, pt)
}

// all returns every sample of the points from i on, in order.
func (c *calib) all(i int) []float64 {
	var out []float64
	for _, pt := range c.pts[i:] {
		out = append(out, pt...)
	}
	return out
}

// speed is how much faster than the reference host the CPUs ran code
// between calibration points i and i+1: the nominal kernel time over
// the median of both points' samples. Their clock, and the caches and
// memory they share with other VMs, set it; 1.25 means the kernel took
// 80% of its nominal CPU time.
func (c *calib) speed(i int) float64 {
	return ratio(calibNominalMs, median(append(append([]float64(nil), c.pts[i]...), c.pts[i+1]...)))
}

// threadCPU is the CPU time the calling thread has used, in
// nanoseconds (CLOCK_THREAD_CPUTIME_ID; getrusage counts a thread in
// whole scheduler ticks, too coarse for a 2 ms kernel).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// ticks are the VM's CPU time from /proc/stat, in clock ticks: busy is
// user, nice, system, irq and softirq time; stolen is steal time, when
// a CPU was runnable but the host ran something else.
type ticks struct{ busy, stolen uint64 }

// hostTicks reads the VM's ticks so far; they are 0 where /proc/stat is
// missing.
func hostTicks() ticks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return ticks{busy: v[0] + v[1] + v[2] + v[5] + v[6], stolen: v[7]}
}

func (t ticks) sub(o ticks) ticks { return ticks{t.busy - o.busy, t.stolen - o.stolen} }

// granted is the share of the CPU time the VM asked for that the host
// gave it; 1 when nothing was stolen or nothing was counted.
func (t ticks) granted() float64 {
	if t.busy == 0 {
		return 1
	}
	return float64(t.busy) / float64(t.busy+t.stolen)
}
