package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/benchprog"
	"repro/internal/freq"
	"repro/internal/machine"
)

// cell is one sweep allocation: a benchprog under one strategy and one
// register configuration of the paper's sweep.
type cell struct {
	prog  int
	strat string
	cfg   machine.Config
}

// sweepCells lists the 14 benchprogs x 7 strategies x 18 configurations
// in program-major order, so the 126 cells of one program share its
// round-0 prep.
func sweepCells() []cell {
	var names []string
	for n := range callcost.Strategies() {
		names = append(names, n)
	}
	sort.Strings(names)
	var cells []cell
	for p := range benchprog.All() {
		for _, s := range names {
			for _, c := range machine.Sweep() {
				cells = append(cells, cell{prog: p, strat: s, cfg: c})
			}
		}
	}
	return cells
}

// verifyConfig reports whether a sweep cell belongs to the subset that
// is executed on minterp: every strategy and program at the tightest
// configuration and at the paper's headline split.
func verifyConfig(c machine.Config) bool {
	return c == machine.NewConfig(6, 4, 0, 0) || c == machine.NewConfig(8, 6, 4, 4)
}

// compiledSuite is a freshly compiled benchprog suite with its static
// frequency tables; a fresh suite has an empty prep cache.
type compiledSuite struct {
	progs []*callcost.Program
	pfs   []*freq.ProgramFreq
}

func compileSuite() (compiledSuite, error) {
	var s compiledSuite
	for _, bp := range benchprog.All() {
		p, err := callcost.Compile(bp.Source)
		if err != nil {
			return s, fmt.Errorf("compile %s: %w", bp.Name, err)
		}
		s.progs = append(s.progs, p)
		s.pfs = append(s.pfs, p.StaticFreq())
	}
	return s, nil
}

// sweepOptions are the library defaults with functions allocated
// sequentially inside a cell.
func sweepOptions() callcost.AllocOptions {
	opts := callcost.DefaultAllocOptions()
	opts.Parallel = 1
	return opts
}

// sweepOrder groups the cell indices by program — a program's cells
// share its round-0 prep — and shuffles the order of the programs and
// of the cells within each with the seed.
func sweepOrder(cells []cell, seed int64) [][]int {
	groups := make([][]int, len(benchprog.All()))
	for i, c := range cells {
		groups[c.prog] = append(groups[c.prog], i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	return groups
}

// sweepPass allocates every cell of order on a freshly compiled suite,
// over workers goroutines that each allocate one cell at a time. It
// returns each cell's span, overhead total and error, in order's
// order, and the pass's makespan: the largest of the workers' summed
// cell spans. The overhead totals are computed between a worker's
// cells, so they stay outside the makespan, and each allocation is
// dropped once its total is taken.
func sweepPass(cells []cell, order []int, workers int) (lats []time.Duration, totals []float64, errs []error, makespan time.Duration, err error) {
	s, err := compileSuite()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	strats := callcost.Strategies()
	opts := sweepOptions()
	lats = make([]time.Duration, len(order))
	totals = make([]float64, len(order))
	errs = make([]error, len(order))
	busy := make([]time.Duration, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				c := cells[order[k]]
				t0 := time.Now()
				a, err := s.progs[c.prog].AllocateWithOptions(strats[c.strat], c.cfg, s.pfs[c.prog], opts)
				lats[k] = time.Since(t0)
				busy[w] += lats[k]
				if errs[k] = err; err == nil {
					totals[k] = a.Overhead(s.pfs[c.prog]).Total()
				}
			}
		}()
	}
	wg.Wait()
	return lats, totals, errs, slices.Max(busy), nil
}

// sweepSegmentResult is what one sweep segment reports to the run
// that launched it: the window start, each pass's real end, and each
// cell span in the order the cells ran, pass by pass.
type sweepSegmentResult struct {
	Start     int64     `json:"start"` // Unix ns
	PassEnds  []int64   `json:"passEnds"`
	Makespans []int64   `json:"makespans"` // ns
	Lats      []int64   `json:"lats"`      // ns
	Failed    []int     `json:"failed"`    // indices into Lats
	Ref       []float64 `json:"ref"`       // pass 0 overhead totals, by cell
	Problems  []string  `json:"problems"`
	PeakRSSMB float64   `json:"peakRssMb"`
}

// sweepSegment runs one segment of the sweep window in this process:
// a warm-up pass, which grows the heap and pages in the allocator's
// code, then passes over every cell until segLen has passed and at
// least two passes ran. Every pass must reproduce pass 0's overhead
// totals bit for bit.
func sweepSegment(cfg config, segLen time.Duration) (sweepSegmentResult, error) {
	var res sweepSegmentResult
	cells := sweepCells()
	order := slices.Concat(sweepOrder(cells, cfg.seed)...)
	workers := runtime.NumCPU()
	_, _, errs, _, err := sweepPass(cells, order, workers)
	if err == nil {
		err = errors.Join(errs...)
	}
	if err != nil {
		return res, fmt.Errorf("warm-up pass: %w", err)
	}

	res.Ref = make([]float64, len(cells))
	start := time.Now()
	res.Start = start.UnixNano()
	deadline := start.Add(segLen)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		lats, totals, errs, makespan, err := sweepPass(cells, order, workers)
		if err != nil {
			return res, err
		}
		res.PassEnds = append(res.PassEnds, time.Now().UnixNano())
		res.Makespans = append(res.Makespans, makespan.Nanoseconds())
		for k, i := range order {
			bad := errs[k] != nil
			if bad {
				res.Problems = append(res.Problems, fmt.Sprintf("cell %d: %v", i, errs[k]))
			} else if pass == 0 {
				res.Ref[i] = totals[k]
			} else if math.Float64bits(totals[k]) != math.Float64bits(res.Ref[i]) {
				bad = true
				res.Problems = append(res.Problems, fmt.Sprintf("cell %d: overhead %v in pass %d, %v in pass 0", i, totals[k], pass, res.Ref[i]))
			}
			if bad {
				res.Failed = append(res.Failed, len(res.Lats))
			}
			res.Lats = append(res.Lats, lats[k].Nanoseconds())
		}
	}
	res.PeakRSSMB, err = peakRSSMB(os.Getpid())
	return res, err
}

// launchSweepSegment runs one sweep segment in a fresh process of this
// benchmark and returns its report and its set-up time: from launch to
// the first timed cell.
func launchSweepSegment(cfg config, segLen time.Duration) (sweepSegmentResult, float64, error) {
	var res sweepSegmentResult
	self, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--sweep-segment-ms", strconv.FormatInt(segLen.Milliseconds(), 10))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	launched := time.Now()
	outb, err := cmd.Output()
	if err != nil {
		return res, 0, fmt.Errorf("sweep segment: %w", err)
	}
	if err := json.Unmarshal(outb, &res); err != nil {
		return res, 0, fmt.Errorf("sweep segment report: %w", err)
	}
	return res, time.Unix(0, res.Start).Sub(launched).Seconds(), nil
}

// runSweep is the untraced sweep run: passes over every cell, each on a
// freshly compiled suite, with one worker per CPU, so a run samples
// every CPU of a host whose CPUs slow down and speed up independently.
// The window is split into setupReps equal segments, each run by a
// fresh process, and the figures pool the passes of all segments: as
// with the daemon, the speed of a process differs from one launch to
// the next while the passes of one process agree. The window is the sum
// of the passes' makespans, so compiling and the checks stay outside
// it. Sums are taken in cell order, whatever order the seed runs the
// cells in.
func runSweep(cfg config) (*outcome, error) {
	out := newOutcome()
	cells := sweepCells()
	segLen := time.Duration(cfg.seconds) * time.Second / setupReps
	steal := startStealMonitor()
	defer steal.Stop()
	var segs []sweepSegmentResult
	var setups, rsss []float64
	for rep := 0; rep < setupReps; rep++ {
		seg, setup, err := launchSweepSegment(cfg, segLen)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		setups = append(setups, setup)
		rsss = append(rsss, seg.PeakRSSMB)
	}
	steal.Stop()

	ref := segs[0].Ref
	var blocks []block
	var window time.Duration
	passes, nSamples, nFailed := 0, 0, 0
	for i, seg := range segs {
		out.problems = append(out.problems, seg.Problems...)
		for c := range cells {
			if math.Float64bits(seg.Ref[c]) != math.Float64bits(ref[c]) {
				out.problem("segment %d: cell %d overhead %v, segment 0 %v", i, c, seg.Ref[c], ref[c])
			}
		}
		failed := make(map[int]bool, len(seg.Failed))
		for _, k := range seg.Failed {
			failed[k] = true
		}
		samples := make([]sample, len(seg.Lats))
		var at time.Duration
		for p, end := range seg.PassEnds {
			at += time.Duration(seg.Makespans[p])
			for k := p * len(cells); k < (p+1)*len(cells); k++ {
				samples[k] = sample{at: at, wall: time.Unix(0, end), lat: time.Duration(seg.Lats[k]), failed: failed[k]}
			}
		}
		window += at
		passes += len(seg.PassEnds)
		nSamples += len(samples)
		nFailed += len(seg.Failed)
		// One block per pass: every block is the same 1764 cells.
		segBlocks, err := cutBlocks(samples, len(cells), time.Unix(0, seg.Start), steal)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, segBlocks...)
	}

	// Execute the verification subset on a fresh suite, outside the
	// window, and tie each executed cell back to the timed passes.
	s, err := compileSuite()
	if err != nil {
		return nil, err
	}
	var sub []int
	for i, c := range cells {
		if verifyConfig(c.cfg) {
			sub = append(sub, i)
		}
	}
	shares := make([]float64, len(sub))
	err = forEach(len(sub), func(j int) error {
		c := cells[sub[j]]
		a, err := s.progs[c.prog].AllocateWithOptions(callcost.Strategies()[c.strat], c.cfg, s.pfs[c.prog], sweepOptions())
		if err != nil {
			return err
		}
		if t := a.Overhead(s.pfs[c.prog]).Total(); math.Float64bits(t) != math.Float64bits(ref[sub[j]]) {
			return fmt.Errorf("cell %d: verification allocation has overhead %v, timed passes %v", sub[j], t, ref[sub[j]])
		}
		shares[j], err = executeChecked(a, 0)
		return err
	})
	if err != nil {
		out.problem("%v", err)
	}
	measured, analytic := 0.0, 0.0
	for _, sh := range shares {
		measured += sh
	}
	measured /= float64(len(shares))
	for i, t := range ref {
		analytic += t / weightedInstrs(s.progs[cells[i].prog], s.pfs[cells[i].prog])
	}
	analytic /= float64(len(ref))

	sum := summarize(blocks)
	nGood := nSamples - nFailed
	out.attempted = nSamples
	out.failed = nFailed
	out.set("setup_s", "s", median(setups))
	out.set("ops_per_s", "1/s", sum.rate)
	out.set("latency_p50_ms", "ms", sum.p50)
	out.set("latency_p99_ms", "ms", sum.p99)
	out.set("success_share", "share", float64(nGood)/float64(nSamples))
	out.set("overhead_analytic", "ops/insn", analytic)
	out.set("overhead_measured", "ops/insn", measured)
	out.set("peak_rss_mb", "MiB", mean(rsss))
	out.exact["overhead_analytic"] = analytic
	out.exact["overhead_measured"] = measured

	out.info["workers"] = runtime.NumCPU()
	out.info["segments"] = len(segs)
	out.info["cells_per_pass"] = len(cells)
	out.info["passes"] = passes
	out.info["setup_s_each"] = setups
	out.info["peak_rss_mb_each"] = rsss
	out.info["window_s"] = window.Seconds()
	out.info["latency_samples"] = sum.samples
	out.info["block_rates"] = sum.rates
	out.info["block_steal"] = sum.steal
	out.info["blocks"] = len(blocks)
	out.info["blocks_kept"] = sum.kept
	out.info["block_len"] = len(cells)
	out.info["executed_cells"] = len(sub)
	return out, nil
}
