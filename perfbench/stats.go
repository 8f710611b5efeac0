package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// minTailSamples is the sample count a p99 needs: with nearest-rank
// percentiles, 1000 samples leave 10 beyond the 99th.
const minTailSamples = 1000

// sample is one timed operation of a window.
type sample struct {
	at     time.Duration // completion, on the window's clock
	wall   time.Time     // completion, on the wall clock
	lat    time.Duration
	failed bool
}

// block is one block of a window: a fixed mix of operations.
type block struct {
	rate  float64   // successful operations per second
	ms    []float64 // latencies
	steal float64   // share of CPU time stolen while the block ran
}

// cutBlocks cuts a window's samples, in the order the operations were
// started, into blocks of blockLen operations, and gives each block's
// rate of successful operations, its latencies, and the share of CPU
// time the hypervisor stole while it ran. A workload
// chooses its blocks so that each holds the same mix of operations (a
// sweep pass, or whole cycles of a serve request set); the blocks then
// differ only by the host's speed while they ran, not by which inputs
// fell into them. A trailing partial block is left out. A block holds
// at least minTailSamples operations, so at least 10 lie beyond a p99
// of even one block. A block lasts from the last completion of the block before it
// (or the start of the window) to its own last completion. A failed
// operation counts as infinitely slow, so it misses every limit.
func cutBlocks(samples []sample, blockLen int, start time.Time, st *stealMonitor) ([]block, error) {
	if blockLen < minTailSamples {
		return nil, fmt.Errorf("blocks of %d operations, a p99 needs %d", blockLen, minTailSamples)
	}
	n := len(samples) / blockLen
	if n == 0 {
		return nil, fmt.Errorf("%d operations, not one block of %d", len(samples), blockLen)
	}
	var blocks []block
	var from time.Duration
	fromWall := start
	for b := 0; b < n; b++ {
		ops := samples[b*blockLen : (b+1)*blockLen]
		ms := make([]float64, len(ops))
		ok := 0
		end, endWall := from, fromWall
		for i, x := range ops {
			ms[i] = float64(x.lat.Nanoseconds()) / 1e6
			if x.failed {
				ms[i] = math.Inf(1)
			} else {
				ok++
			}
			end = max(end, x.at)
			if x.wall.After(endWall) {
				endWall = x.wall
			}
		}
		blocks = append(blocks, block{
			rate:  float64(ok) / (end - from).Seconds(),
			ms:    ms,
			steal: st.share(fromWall, endWall),
		})
		from, fromWall = end, endWall
	}
	return blocks, nil
}

// windowSummary holds a window's throughput and latency percentiles.
type windowSummary struct {
	rate     float64 // successful operations per second
	p50, p99 float64 // ms
	rates    []float64
	steal    []float64
	kept     int // blocks the figures are taken from
	samples  int // latencies the percentiles are taken from
}

// summarize reports, over the least-stolen blocks — those in which the
// hypervisor took no larger a share of the CPU time than in the median
// block, or than stealFloor — the median of their rates and the
// nearest-rank p50 and p99 of all their latencies. Leaving out the
// blocks that ran while the hypervisor gave the CPUs to other guests
// keeps such bursts from moving the figures; on a host that steals
// little, every block counts. Pooling the latencies puts several sends
// of each request of a fixed mix behind the p99, rather than the one
// send per block that makes the p99 of a single serve-cold block.
func summarize(blocks []block) windowSummary {
	var s windowSummary
	for _, b := range blocks {
		s.rates = append(s.rates, b.rate)
		s.steal = append(s.steal, b.steal)
	}
	limit := max(median(s.steal), stealFloor)
	var rates, ms []float64
	for _, b := range blocks {
		if b.steal <= limit {
			rates = append(rates, b.rate)
			ms = append(ms, b.ms...)
		}
	}
	sort.Float64s(ms)
	s.kept = len(rates)
	s.samples = len(ms)
	s.rate = median(rates)
	s.p50 = ms[rank(len(ms), 0.50)]
	s.p99 = ms[rank(len(ms), 0.99)]
	return s
}

// stealMonitor samples the hypervisor's steal counter while a window
// runs, so that summarize can tell which blocks ran while the host gave
// this machine's CPUs to other guests.
type stealMonitor struct {
	mu     sync.Mutex
	times  []time.Time
	stolen []float64 // stolenSeconds at times
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

// stealFloor is a steal share below which a block always counts: the
// counter ticks in 10 ms steps, so a tick or two in a block is noise.
const stealFloor = 0.02

// stealEvery is the sampling period: short against a block (0.4 s for
// a sweep pass, a second or more for a serve block), long against the
// 10 ms resolution of the counter.
const stealEvery = 50 * time.Millisecond

// startStealMonitor starts sampling; Stop ends it.
func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.record()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.record()
				return
			case <-t.C:
				m.record()
			}
		}
	}()
	return m
}

func (m *stealMonitor) record() {
	v := stolenSeconds()
	m.mu.Lock()
	m.times = append(m.times, time.Now())
	m.stolen = append(m.stolen, v)
	m.mu.Unlock()
}

// Stop ends the sampling and waits for the sampler to exit. Later
// calls do nothing.
func (m *stealMonitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// share is the share of the CPU time of all CPUs that was stolen
// between from and to, with the counter interpolated linearly between
// samples.
func (m *stealMonitor) share(from, to time.Time) float64 {
	if m == nil || !to.After(from) {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	stolen := m.at(to) - m.at(from)
	return stolen / to.Sub(from).Seconds() / float64(runtime.NumCPU())
}

// at is the counter's value at t; m.mu is held.
func (m *stealMonitor) at(t time.Time) float64 {
	i := sort.Search(len(m.times), func(i int) bool { return !m.times[i].Before(t) })
	switch {
	case len(m.times) == 0:
		return 0
	case i == 0:
		return m.stolen[0]
	case i == len(m.times):
		return m.stolen[i-1]
	}
	t0, t1 := m.times[i-1], m.times[i]
	f := t.Sub(t0).Seconds() / t1.Sub(t0).Seconds()
	return m.stolen[i-1] + f*(m.stolen[i]-m.stolen[i-1])
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
