// Command perfbench is the repository benchmark. It runs one workload
// against the allocator's two front doors — a real rallocd subprocess
// driven over HTTP (serve-cold, serve-warm) and the callcost library in
// process (sweep) — checks every output it times, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no tracing. With --trace 1 it holds the per-layer metrics: every
// request of the workload is replayed in process through the same
// public calls the daemon makes, with spans recorded around each call
// from this package's own code (replay.go). DESIGN.md maps each layer
// metric to the end-to-end metric and workload it should move.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// exact holds the values that must repeat bit-for-bit across runs
	// of one seed; main compares them with the record of earlier runs.
	exact map[string]float64
	// problems lists every failed output check; any entry makes the
	// run incorrect.
	problems []string
	// info is provenance: sample counts and cross-check figures.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, exact: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rallocd  string
	out      string
}

var workloads = []string{"serve-cold", "serve-warm", "sweep"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced replay reporting per-layer metrics")
	flag.StringVar(&cfg.rallocd, "rallocd", ".bench_build/rallocd", "rallocd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for span dumps and determinism records")
	segmentMS := flag.Int64("sweep-segment-ms", 0, "internal: run one sweep segment of this many ms and print its report")
	flag.Parse()
	if *segmentMS > 0 {
		res, err := sweepSegment(cfg, time.Duration(*segmentMS)*time.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: sweep segment:", err)
			os.Exit(1)
		}
		must(json.NewEncoder(os.Stdout).Encode(res))
		return
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	kernelStart := referenceKernel()
	stealStart, runStart := stolenSeconds(), time.Now()
	var out *outcome
	var err error
	switch cfg.workload {
	case "serve-cold", "serve-warm":
		if cfg.trace {
			out, err = traceServe(cfg)
		} else {
			out, err = runServe(cfg)
		}
	case "sweep":
		if cfg.trace {
			out, err = traceSweep(cfg)
		} else {
			out, err = runSweep(cfg)
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	checkDeterminism(cfg, out)

	prov := provenance(cfg)
	prov["kernel_ms_start"] = kernelStart
	prov["kernel_ms_end"] = referenceKernel()
	prov["steal_share"] = (stolenSeconds() - stealStart) / time.Since(runStart).Seconds() / float64(runtime.NumCPU())
	for k, v := range out.info {
		prov[k] = v
	}
	prov["problems"] = out.problems
	enc := json.NewEncoder(os.Stdout)
	must(enc.Encode(map[string]any{"provenance": prov}))
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	must(enc.Encode(res))
	if !res.Correct {
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// provenance records the host and toolchain behind a run. The kernel
// times and the steal share are evidence of host speed drift between
// runs only; they are never a metric.
func provenance(cfg config) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
	}
}

// referenceKernel times a fixed stdlib-only CPU task (SHA-256 over
// 32 MiB) in milliseconds.
func referenceKernel() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	t0 := time.Now()
	h := sha256.New()
	for i := 0; i < 32; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// stolenSeconds is the CPU time the hypervisor gave to others while
// this machine's CPUs wanted to run, summed over CPUs (the steal column
// of /proc/stat, in USER_HZ = 100 ticks per second); 0 where it cannot
// be read. Like the kernel time, it is evidence of host contention only.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// checkDeterminism compares the run's exact values with the record an
// earlier run of the same binaries, workload, seed and trace mode left
// behind, and leaves a record when there is none. Any difference, even
// one ulp, is a failed check: these values are counts and sums in a
// fixed order, so a difference is a defect, not noise.
func checkDeterminism(cfg config, out *outcome) {
	if len(out.exact) == 0 {
		return
	}
	id, err := buildID(cfg.rallocd)
	if err != nil {
		out.problem("determinism record: %v", err)
		return
	}
	dir := filepath.Join(cfg.out, "determinism", id)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace))
	// Floats are stored by their bit patterns, so the comparison is
	// exact and JSON formatting cannot round anything away.
	bits := map[string]uint64{}
	for k, v := range out.exact {
		bits[k] = math.Float64bits(v)
	}
	prev, err := os.ReadFile(path)
	if err == nil {
		var old map[string]uint64
		if err := json.Unmarshal(prev, &old); err != nil {
			out.problem("determinism record %s: %v", path, err)
			return
		}
		names := make([]string, 0, len(bits))
		for k := range bits {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if o, ok := old[k]; ok && o != bits[k] {
				out.problem("%s drifted from an earlier run of this seed: %v, was %v", k,
					math.Float64frombits(bits[k]), math.Float64frombits(o))
			}
		}
		out.info["determinism"] = "compared with " + path
		return
	}
	// Written to a temporary name and renamed, so a concurrent reader
	// never sees half a record.
	b, err := json.Marshal(bits)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path+".tmp", b, 0o644)
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		out.problem("determinism record: %v", err)
		return
	}
	out.info["determinism"] = "recorded " + path
}

// buildID names the pair of binaries under test by content, so records
// of one build are never compared with another build's.
func buildID(rallocd string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{self, rallocd} {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}
