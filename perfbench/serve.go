package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro/internal/benchprog"
	"repro/internal/randprog"
	"repro/internal/server"
)

const (
	// setupReps is the number of segments a run's window is split into,
	// each served by a freshly launched and set-up process; setup_s is
	// the median of their set-up times, so one slow launch does not
	// decide the figure.
	setupReps = 3
	// coldPool is the number of distinct serve-cold requests, and
	// coldPoolSeed the randprog seed they are generated from. The pool
	// is the same for every --seed, which only orders it, so the
	// overhead metrics over it repeat exactly from seed to seed. A
	// window sends the pool over and over in one seeded order, so a
	// request comes back only after the 1023 others have inserted some
	// 6300 functions (about 6.2 a request) into the 4096-entry default
	// cache, which has evicted it by then: every request misses, and
	// from some 660 requests in, every insertion evicts. Each cycle is
	// one statistics block, the same mix of programs, and holds enough
	// requests for a p99.
	coldPool     = 1024
	coldPoolSeed = 1 << 40
	// coldCheckEvery picks the serve-cold requests whose replies are
	// byte-checked against server.ReferenceResult, and coldExecEvery
	// the candidates for execution on minterp.
	coldCheckEvery = 32
	coldExecEvery  = 4
	// warmBlockShuffles is how many shuffles of the serve-warm request
	// set form one block of the window's statistics: 6 x 168 = 1008
	// requests, enough for a p99, each block the same mix.
	warmBlockShuffles = 6
)

// servedConfigs are the register configurations of randprog.Corpus:
// tight, the paper's headline split, caller-save only, and roomy.
var servedConfigs = []server.ConfigRequest{
	{RI: 6, RF: 4, EI: 0, EF: 0},
	{RI: 8, RF: 6, EI: 4, EF: 4},
	{RI: 10, RF: 6, EI: 0, EF: 0},
	{RI: 12, RF: 8, EI: 8, EF: 6},
}

// servedStrategies are the allocator families randprog.Corpus rotates.
var servedStrategies = []string{"improved", "linscan", "hybrid"}

// serveInput is one serve workload's request set: the distinct bodies
// and the order in which a window sends them.
type serveInput struct {
	bodies [][]byte
	reqs   []server.Request
	seq    []int
}

// warmInputs builds the 168 distinct serve-warm requests (14
// benchprogs x 3 strategies x 4 configurations) and a send order of
// seeded shuffles of them.
func warmInputs(seed int64, seqLen int) (serveInput, error) {
	var in serveInput
	for _, p := range benchprog.All() {
		for _, s := range servedStrategies {
			for _, c := range servedConfigs {
				in.reqs = append(in.reqs, server.Request{Source: p.Source, Config: c, Strategy: s})
			}
		}
	}
	for i := range in.reqs {
		b, err := json.Marshal(&in.reqs[i])
		if err != nil {
			return in, err
		}
		in.bodies = append(in.bodies, b)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(in.seq) < seqLen {
		in.seq = append(in.seq, rng.Perm(len(in.bodies))...)
	}
	return in, nil
}

// corpusChunk is the number of serve-cold requests generated at once.
// randprog.Corpus gives request i the program of seed+i and rotates 4
// configurations and 3 strategies by i, so chunks that start at
// multiples of 12 concatenate to exactly randprog.Corpus(seed, n).
const corpusChunk = 240

// coldInputs builds the serve-cold pool, randprog.Corpus(coldPoolSeed,
// coldPool), generating chunks of it on every CPU, and a send order of
// cycles of one seeded permutation of the pool.
func coldInputs(seed int64, seqLen int) (serveInput, error) {
	in := serveInput{bodies: make([][]byte, coldPool), reqs: make([]server.Request, coldPool)}
	err := forEach((coldPool+corpusChunk-1)/corpusChunk, func(c int) error {
		lo := c * corpusChunk
		hi := min(lo+corpusChunk, coldPool)
		copy(in.bodies[lo:hi], randprog.Corpus(coldPoolSeed+int64(lo), hi-lo))
		for i := lo; i < hi; i++ {
			if err := json.Unmarshal(in.bodies[i], &in.reqs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	order := rand.New(rand.NewSource(seed)).Perm(coldPool)
	for len(in.seq) < seqLen {
		in.seq = append(in.seq, order...)
	}
	return in, err
}

// inputsFor builds a serve workload's inputs, with a send order some
// twenty times longer than the requests this benchmark's 2-vCPU host
// completes in the window, so only a far faster program or host could
// use it up; the window's checks report that as a failure.
func inputsFor(cfg config, seconds int) (serveInput, error) {
	if cfg.workload == "serve-cold" {
		return coldInputs(cfg.seed, 2000*seconds)
	}
	return warmInputs(cfg.seed, 20000*seconds)
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func keepAll(int) bool { return true }

// fillCache sends every distinct request once over conns connections,
// which fills the daemon's cache for serve-warm.
func fillCache(d *daemon, in serveInput, conns int) ([]reply, error) {
	fill, _ := drive(d.client, d.base+"/allocate", in.bodies, identity(len(in.bodies)), conns, time.Time{}, 0, keepAll)
	for _, r := range fill {
		if r.status != http.StatusOK || r.badTail {
			return nil, fmt.Errorf("cache fill: request %d answered %d", r.id, r.status)
		}
	}
	return fill, nil
}

// segment is one daemon's share of a serve window.
type segment struct {
	in       serveInput
	setup    float64 // seconds from launch to the first timed request
	fill     []reply // the first reply to each distinct request, by id
	replies  []reply
	start    time.Time
	wall     time.Duration
	rss      float64
	counters map[string]int64 // deltas over the segment
}

// serveSegment launches a daemon, sets it up — inputs, warm
// connections and, for serve-warm, the cache fill — and has it serve
// requests over conns connections until segLen has passed and at least
// one block of blockLen requests was sent. It stops the daemon on
// every path.
func serveSegment(cfg config, cold bool, conns, blockLen int, segLen time.Duration) (seg segment, err error) {
	t0 := time.Now()
	d, err := startDaemon(cfg.rallocd, conns)
	if err != nil {
		return seg, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // error path; the run already failed
		}
	}()
	if seg.in, err = inputsFor(cfg, cfg.seconds); err != nil {
		return seg, err
	}
	if err = d.warmConnections(conns); err != nil {
		return seg, err
	}
	if !cold {
		if seg.fill, err = fillCache(d, seg.in, conns); err != nil {
			return seg, err
		}
	}
	before, err := d.counters()
	if err != nil {
		return seg, err
	}
	seg.setup = time.Since(t0).Seconds()

	in := seg.in
	keep := func(k int) bool { return cold && k < coldPool && in.seq[k]%coldCheckEvery == 0 }
	// The client runs on one P: its work per request is small, and an
	// idle P of a second Go process spinning for work would take CPU
	// from the daemon it is measuring.
	procs := runtime.GOMAXPROCS(1)
	seg.start = time.Now()
	seg.replies, seg.wall = drive(d.client, d.base+"/allocate", in.bodies, in.seq, conns, seg.start.Add(segLen), blockLen, keep)
	runtime.GOMAXPROCS(procs)
	after, err := d.counters()
	if err != nil {
		return seg, err
	}
	seg.counters = map[string]int64{}
	for k, v := range after {
		seg.counters[k] = v - before[k]
	}
	if seg.rss, err = d.peakRSSMB(); err != nil {
		return seg, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return seg, fmt.Errorf("rallocd did not drain cleanly: %w", err)
	}
	if cold {
		// The first cycle sends every pool request once.
		seg.fill = make([]reply, coldPool)
		for k := 0; k < min(coldPool, len(seg.replies)); k++ {
			seg.fill[in.seq[k]] = seg.replies[k]
		}
	}
	return seg, nil
}

// runServe is the untraced serve-cold / serve-warm run. It launches
// the daemon setupReps times; each launch is set up and then serves an
// equal segment of the window, and the figures pool the blocks of all
// segments. On the 2-vCPU host this benchmark was tuned on, a daemon's
// speed differs by up to a fifth from one launch to the next while the
// blocks served by one launch agree within a few percent, so a window
// served by one launch would measure mostly which launch it got.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	cold := cfg.workload == "serve-cold"
	conns := runtime.NumCPU()
	// A segment sends at least one statistics block: six shuffles of
	// the serve-warm set, or one cycle of the serve-cold pool.
	blockLen := warmBlockShuffles * len(servedConfigs) * len(servedStrategies) * len(benchprog.All())
	if cold {
		blockLen = coldPool
	}
	steal := startStealMonitor()
	defer steal.Stop()
	segLen := time.Duration(cfg.seconds) * time.Second / setupReps
	var segs []segment
	for rep := 0; rep < setupReps; rep++ {
		seg, err := serveSegment(cfg, cold, conns, blockLen, segLen)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	steal.Stop()

	// Every check below runs after the window has closed.
	checksStart := time.Now()
	in, fill := segs[0].in, segs[0].fill
	// Oracles, on the first segment's replies: byte-compare served
	// Results with server.ReferenceResult, and execute a fixed subset on
	// minterp against the reference interpreter. Both walk the distinct
	// requests in one fixed order, whatever order the seed sent them
	// in, so the means below repeat exactly from seed to seed.
	var totals []float64 // overhead totals of the distinct requests
	var executed []int   // the requests executed on minterp
	maxSteps := int64(0) // benchprogs run to completion
	if cold {
		// Like the repository's randprog tests, execute only programs
		// the reference interpreter finishes within 3M steps.
		maxSteps = 3_000_000
	}
	badID := make([]bool, len(fill))
	for id, f := range fill {
		totals = append(totals, f.total)
		var err error
		if f.status != http.StatusOK {
			err = fmt.Errorf("answered %d", f.status)
		} else if !cold || id%coldCheckEvery == 0 {
			err = sameAsReference(&in.reqs[id], f.body)
		}
		if err != nil {
			out.problem("request %d: %v", id, err)
			badID[id] = true
		}
		if cold && id%coldExecEvery == 0 || !cold && id%len(servedConfigs) < 2 {
			executed = append(executed, id)
		}
	}

	var blocks []block
	var setups, rsss []float64
	var window time.Duration
	attempted, nGood, hits, misses, shed, evictions := 0, 0, 0, 0, 0, int64(0)
	for i, seg := range segs {
		setups = append(setups, seg.setup)
		rsss = append(rsss, seg.rss)
		window += seg.wall
		if len(seg.replies) == len(seg.in.seq) {
			out.problem("segment %d used up all %d inputs before its deadline", i, len(seg.in.seq))
		}
		// Every launch must render every request to the same bytes.
		for id, f := range seg.fill {
			if f.status != fill[id].status || f.crc != fill[id].crc || f.total != fill[id].total {
				out.problem("segment %d: request %d rendered differently from segment 0", i, id)
			}
		}
		good := make([]bool, len(seg.replies))
		segHits, segMisses, segShed := 0, 0, 0
		for k, r := range seg.replies {
			if r.status == http.StatusTooManyRequests {
				segShed++
			}
			if r.status != http.StatusOK {
				continue
			}
			segHits += r.hits
			segMisses += r.misses
			// Every reply must carry the Result bytes of the first reply
			// to the same request, which the oracles passed; a warm reply
			// must be a full hit, a cold one a full miss.
			f := seg.fill[r.id]
			good[k] = !r.badTail && !badID[r.id] && r.crc == f.crc && r.hits+r.misses == f.hits+f.misses
			if cold {
				good[k] = good[k] && r.hits == 0
			} else {
				good[k] = good[k] && r.misses == 0
			}
		}
		if cold && segHits > 0 {
			out.problem("segment %d: serve-cold replies reported %d cache hits, want none", i, segHits)
		}
		for _, c := range []struct {
			counter string
			client  int
		}{
			{"result_cache_hits_total", segHits},
			{"result_cache_misses_total", segMisses},
			{"server_shed_total", segShed},
		} {
			if delta := seg.counters[c.counter]; delta != int64(c.client) {
				out.problem("segment %d: %s moved by %d, the replies count %d", i, c.counter, delta, c.client)
			}
		}
		segEvictions := seg.counters["result_cache_evictions_total"]
		if cold && segEvictions == 0 {
			out.problem("segment %d of serve-cold ended before the cache evicted", i)
		}
		hits, misses, shed, evictions = hits+segHits, misses+segMisses, shed+segShed, evictions+segEvictions

		samples := make([]sample, len(seg.replies))
		for k, r := range seg.replies {
			samples[k] = sample{at: r.at, wall: seg.start.Add(r.at), lat: r.lat, failed: !good[k]}
			if good[k] {
				nGood++
			}
		}
		attempted += len(samples)
		segBlocks, err := cutBlocks(samples, blockLen, seg.start, steal)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, segBlocks...)
	}

	analytic, err := meanShares(len(totals), func(i int) (float64, error) {
		return analyticShare(&in.reqs[i], totals[i])
	})
	if err != nil {
		out.problem("analytic overhead: %v", err)
	}
	measured, nExec, err := executeRequests(in.reqs, executed, maxSteps)
	if err != nil {
		out.problem("%v", err)
	}
	checksS := time.Since(checksStart).Seconds()

	sum := summarize(blocks)
	out.attempted = attempted
	out.failed = attempted - nGood
	out.set("setup_s", "s", median(setups))
	out.set("ops_per_s", "1/s", sum.rate)
	out.set("latency_p50_ms", "ms", sum.p50)
	out.set("latency_p99_ms", "ms", sum.p99)
	out.set("success_share", "share", float64(nGood)/float64(attempted))
	out.set("overhead_analytic", "ops/insn", analytic)
	out.set("overhead_measured", "ops/insn", measured)
	out.set("peak_rss_mb", "MiB", mean(rsss))
	out.exact["overhead_analytic"] = analytic
	out.exact["overhead_measured"] = measured

	out.info["connections"] = conns
	out.info["segments"] = len(segs)
	out.info["setup_s_each"] = setups
	out.info["peak_rss_mb_each"] = rsss
	out.info["window_s"] = window.Seconds()
	out.info["latency_samples"] = sum.samples
	out.info["block_rates"] = sum.rates
	out.info["block_steal"] = sum.steal
	out.info["blocks"] = len(blocks)
	out.info["blocks_kept"] = sum.kept
	out.info["block_len"] = blockLen
	out.info["cache_hits"] = hits
	out.info["cache_misses"] = misses
	out.info["shed"] = shed
	out.info["evictions"] = evictions
	out.info["executed"] = nExec
	out.info["checks_s"] = checksS
	return out, nil
}

// sameAsReference byte-compares the Result inside a served reply with
// the in-process oracle's rendering of the same request.
func sameAsReference(req *server.Request, body []byte) error {
	res, _, _, _, ok := splitReply(body)
	if !ok {
		return fmt.Errorf("unparseable reply")
	}
	ref, err := server.ReferenceResult(req)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(res, want) {
		return fmt.Errorf("served Result differs from server.ReferenceResult")
	}
	return nil
}
