package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/server"
)

// The overhead metrics are shares, averaged over the operations of a
// workload, so that every request weighs the same: a sum of raw
// overheads over random programs is ruled by the few with the deepest
// loops, and moves by orders of magnitude from one seed to the next.

// weightedInstrs is a program's instruction count weighted by its
// static frequency table: the work an overhead share is relative to.
func weightedInstrs(p *callcost.Program, pf *freq.ProgramFreq) float64 {
	w := 0.0
	for _, fn := range p.IR.Funcs {
		ff := pf.ByFunc[fn.Name]
		for _, b := range fn.Blocks {
			if ff != nil && b.ID < len(ff.Block) {
				w += ff.Block[b.ID] * float64(len(b.Instrs))
			}
		}
	}
	return w
}

// analyticShare is a request's analytic overhead (Overhead().Total())
// per frequency-weighted instruction of its program.
func analyticShare(req *server.Request, total float64) (float64, error) {
	p, err := callcost.Compile(req.Source)
	if err != nil {
		return 0, err
	}
	return total / weightedInstrs(p, p.StaticFreq()), nil
}

// meanShares computes share(i) for i in 0..n-1 over all CPUs and
// returns their mean, summed in index order so it repeats exactly.
func meanShares(n int, share func(i int) (float64, error)) (float64, error) {
	shares := make([]float64, n)
	err := forEach(n, func(i int) (err error) {
		shares[i], err = share(i)
		return err
	})
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	return sum / float64(n), err
}

// errTooLong marks a program the reference interpreter does not finish
// within its step budget; such a program is not executed.
var errTooLong = errors.New("reference run exceeds its step budget")

// executeChecked runs the allocated program on the machine-level
// interpreter (minterp) and compares its return value with the
// reference interpreter's (package interp, behind Program.Run), run
// with at most maxSteps steps (0 = the interpreter's default). It
// returns the measured dynamic overhead — spill memory operations plus
// caller- and callee-save operations, counted during execution — per
// instruction the reference run executed.
func executeChecked(a *callcost.Allocation, maxSteps int64) (float64, error) {
	want, err := interp.Run(a.Program.IR, interp.Options{MaxSteps: maxSteps})
	if errors.Is(err, interp.ErrStepLimit) {
		return 0, errTooLong
	}
	if err != nil {
		return 0, fmt.Errorf("reference interpreter: %w", err)
	}
	ov, got, err := a.MeasuredOverhead()
	if err != nil {
		return 0, fmt.Errorf("minterp: %w", err)
	}
	if got.RetInt != want.RetInt || math.Float64bits(got.RetFloat) != math.Float64bits(want.RetFloat) {
		return 0, fmt.Errorf("%s %s: allocated program returned (%d, %g), reference (%d, %g)",
			a.Strategy, a.Config, got.RetInt, got.RetFloat, want.RetInt, want.RetFloat)
	}
	return ov.Total() / float64(want.Steps), nil
}

// executeRequests allocates the chosen requests through the library
// and executes them with executeChecked. Requests whose reference run
// exceeds maxSteps are skipped; it returns the mean measured share over
// the executed ones and their number.
func executeRequests(reqs []server.Request, idx []int, maxSteps int64) (float64, int, error) {
	shares := make([]float64, len(idx))
	ran := make([]bool, len(idx))
	err := forEach(len(idx), func(i int) error {
		req := &reqs[idx[i]]
		prog, err := callcost.Compile(req.Source)
		if err != nil {
			return err
		}
		c := req.Config
		a, err := prog.Allocate(callcost.Strategies()[req.Strategy], machine.NewConfig(c.RI, c.RF, c.EI, c.EF), prog.StaticFreq())
		if err != nil {
			return err
		}
		shares[i], err = executeChecked(a, maxSteps)
		if errors.Is(err, errTooLong) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("request %d: %w", idx[i], err)
		}
		ran[i] = true
		return nil
	})
	sum, n := 0.0, 0
	for i, s := range shares {
		if ran[i] {
			sum += s
			n++
		}
	}
	if n == 0 {
		return 0, 0, errors.Join(err, fmt.Errorf("no request of the subset could be executed"))
	}
	return sum / float64(n), n, err
}

// forEach runs f(0..n-1) on runtime.NumCPU goroutines and returns the
// first error.
func forEach(n int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
