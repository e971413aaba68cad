package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of v by linear
// interpolation between closest ranks. v is sorted in place.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// median returns the median of v (sorted in place).
func median(v []float64) float64 { return percentile(v, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) returns (the default "exclusive" method),
// the definition the steadiness gate uses. v needs at least two values.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// mean returns the arithmetic mean of v, or 0 for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// sum returns the sum of v.
func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// geomean returns the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rusage returns the process's user+sys CPU time and peak resident set
// size in MiB.
func rusage() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// cpuTicks reads the machine-wide steal and total jiffies from /proc/stat;
// ok is false where the file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		x, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU time the hypervisor stole between
// its creation and a call to pct.
type stealMeter struct{ steal, total uint64 }

func newStealMeter() stealMeter {
	s, t, _ := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) pct() float64 {
	s, t, ok := cpuTicks()
	if !ok || t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// machineMs times a fixed floating-point loop over a 512 KiB buffer and
// returns the median of five repeats, in ms: a reading of how fast the
// machine runs right now that does not depend on the program. CPU steal
// misses the contention of other tenants sharing a core; this catches it.
func machineMs() float64 {
	buf := make([]float64, 1<<16)
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := 0.0
		for k := 0; k < 200; k++ {
			for i := range buf {
				buf[i] = buf[i]*0.5 + float64(i^k)
				x += buf[i]
			}
		}
		reps = append(reps, ms(time.Since(t0)))
		sink = x
	}
	return median(reps)
}

// sink keeps machineMs's loop from being optimized away.
var sink float64
