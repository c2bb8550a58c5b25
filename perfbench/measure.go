package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// windowedTail is the tail of a phase's samples (in schedule order): the
// samples are cut into as many consecutive windows of at least tailWindow
// samples as they fill, tailBeyond is taken in each, and the medians of
// the values and percentiles are returned. The value beyond which ten
// samples lie is itself set by about ten samples, so one window's tail
// swings widely from run to run; the median over windows does not.
func windowedTail(xs []float64) (value, pct float64) {
	k := max(1, len(xs)/tailWindow)
	var vals, pcts []float64
	for w := 0; w < k; w++ {
		v, p := tailBeyond(xs[w*len(xs)/k : (w+1)*len(xs)/k])
		vals = append(vals, v)
		pcts = append(pcts, p)
	}
	return median(vals), median(pcts)
}

// tailWindow is the fewest samples a tail window holds.
const tailWindow = 100

// tailBeyond is the highest percentile with at least ten samples beyond
// it: the value with exactly ten larger samples, and that percentile.
// With ten or fewer samples it is the smallest.
func tailBeyond(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats reads the runtime counters a phase is measured with.
type runtimeStats struct {
	cpu      time.Duration
	steal    hostCPU
	alloc    uint64  // bytes allocated so far
	gcCPU    float64 // GC CPU seconds so far
	totalCPU float64 // all runtime-accounted CPU seconds so far
	pauses   *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	rs := runtimeStats{cpu: cpuTime(), steal: readHostCPU()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		rs.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		rs.pauses = s[3].Value.Float64Histogram()
	}
	return rs
}

// pauseP99 is the 99th percentile of the GC pauses between two readings,
// in milliseconds (the upper bound of the histogram bucket it falls in).
func pauseP99(a, b runtimeStats) float64 {
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return 0
	}
	d := make([]uint64, len(b.pauses.Counts))
	total := uint64(0)
	for i := range d {
		d[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	seen := uint64(0)
	for i, c := range d {
		seen += c
		if seen >= want {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

// sampler polls the live heap and the goroutine count while a phase runs
// and keeps their peaks.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	heap uint64 // guarded by mu; peak live heap bytes
	gor  int    // guarded by mu; peak goroutines
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(ms)
			g := runtime.NumGoroutine()
			s.mu.Lock()
			if ms[0].Value.Kind() == metrics.KindUint64 && ms[0].Value.Uint64() > s.heap {
				s.heap = ms[0].Value.Uint64()
			}
			if g > s.gor {
				s.gor = g
			}
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the peaks.
func (s *sampler) finish() (heapBytes uint64, goroutines int) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap, s.gor
}

// hostCPU is the machine-wide CPU time split from /proc/stat: the share a
// hypervisor stole from this machine is the one source of noise the
// benchmark cannot remove, so every record reports it.
type hostCPU struct {
	total, steal uint64
}

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// stealFrac is the share of machine CPU time stolen between two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
