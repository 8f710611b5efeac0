package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Fixed replay sizes of the traced runs, so their counts repeat exactly.
const (
	// traceColdFill serve-cold requests fill the cache past its 4096
	// entries before the measured ones; both come from the start of
	// the seeded order of the pool.
	traceColdFill     = 700
	traceColdMeasured = 250
	traceWarmMeasured = 2000
	traceSweepPasses  = 2
)

// traceServe is the traced serve-cold / serve-warm run. The daemon
// serves each measured request over one connection, which gives the
// served latency with no queueing; right after, the request is replayed
// in process three times, against three caches filled identically:
// untraced (the core), with time spans, and with byte spans. The first
// two run in an order a seeded coin picks, so the advantage of running
// second reaches both alike; strict alternation would line up with the
// corpus's period-12 configuration and strategy rotation.
func traceServe(cfg config) (*outcome, error) {
	out := newOutcome()
	cold := cfg.workload == "serve-cold"
	var (
		in       serveInput
		fillIDs  []int
		measured []int
		err      error
	)
	if cold {
		in, err = coldInputs(cfg.seed, coldPool)
		fillIDs = in.seq[:traceColdFill]
		measured = in.seq[traceColdFill : traceColdFill+traceColdMeasured]
	} else {
		in, err = warmInputs(cfg.seed, traceWarmMeasured)
		fillIDs = identity(len(in.bodies))
		measured = in.seq[:traceWarmMeasured]
	}
	if err != nil {
		return nil, err
	}

	// The daemon serves the fill over one connection per CPU, then each
	// measured request over one connection, interleaved with its replays
	// below, so a drift of the host's speed reaches the served and the
	// replayed latency alike.
	conns := runtime.NumCPU()
	d, err := startDaemon(cfg.rallocd, conns)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // error path; the run already failed
		}
	}()
	shed := 0
	tally := func(r reply) error {
		switch r.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
		default:
			return fmt.Errorf("request %d answered %d", r.id, r.status)
		}
		return nil
	}
	fill, _ := drive(d.client, d.base+"/allocate", in.bodies, fillIDs, conns, time.Time{}, 0, nil)
	for _, r := range fill {
		if err := tally(r); err != nil {
			return nil, err
		}
	}

	// In-process side, with telemetry on as in the daemon.
	tele := telemetry.Enable(nil)
	defer telemetry.Disable()
	stats := &allocStats{}
	recs := make([]*recordingCache, len(fillIDs))
	totals := make([]float64, len(in.bodies))
	if err := forEach(len(fillIDs), func(i int) error {
		recs[i] = &recordingCache{}
		resp, _, err := replayRequest(in.bodies[fillIDs[i]], recs[i], nil, stats)
		if err == nil {
			totals[fillIDs[i]] = resp.Result.Overhead.Total
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("replay fill: %w", err)
	}
	caches := []*resultcache.Cache{resultcache.New(0), resultcache.New(0), resultcache.New(0)}
	for _, rc := range recs {
		for _, c := range caches {
			if err := rc.insertInto(c); err != nil {
				return nil, err
			}
		}
	}
	core, timed, byteCache := caches[0], caches[1], caches[2]

	// Spans per request: five request layers and a root, then a key,
	// a cache and at most a dozen allocation spans per function.
	spans := len(measured) * 160
	tr, br := newRecorder(false, spans), newRecorder(true, spans)
	coin := rand.New(rand.NewSource(cfg.seed))
	var untraced time.Duration
	hits, misses, lenBefore := 0, 0, core.Len()
	mismatches := 0
	var servedTotal time.Duration
	daemonBefore, err := d.counters()
	if err != nil {
		return nil, err
	}
	localBefore := pathCounts(tele)
	for i, id := range measured {
		served := send(d.client, d.base+"/allocate", in.bodies, id, true)
		if err := tally(served); err != nil {
			return nil, err
		}
		body := in.bodies[id]
		tr.req, br.req = int32(i), int32(i)
		var respCore *server.Response
		var bodyCore, bodyTimed []byte
		runCore := func() (err error) {
			t0 := time.Now()
			respCore, bodyCore, err = replayRequest(body, core, nil, stats)
			untraced += time.Since(t0)
			return err
		}
		runTimed := func() (err error) {
			_, bodyTimed, err = replayRequest(body, timed, tr, nil)
			return err
		}
		first, second := runCore, runTimed
		if coin.Intn(2) == 1 {
			first, second = runTimed, runCore
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
		if _, _, err := replayRequest(body, byteCache, br, nil); err != nil {
			return nil, err
		}
		hits += respCore.CacheHits
		misses += respCore.CacheMisses
		if cold {
			totals[id] = respCore.Result.Overhead.Total
		}
		servedTotal += served.lat
		want, _, _, _, ok1 := splitReply(served.body)
		got, _, _, _, ok2 := splitReply(bodyTimed)
		again, _, _, _, ok3 := splitReply(bodyCore)
		if !ok1 || !ok2 || !ok3 || !bytes.Equal(want, got) || !bytes.Equal(again, got) {
			mismatches++
			out.problem("request %d: replayed Result differs from the served one", id)
		}
	}
	daemonAfter, err := d.counters()
	if err != nil {
		return nil, err
	}
	localAfter := pathCounts(tele)
	stopped = true
	if err := d.stop(); err != nil {
		out.problem("rallocd did not drain cleanly: %v", err)
	}
	// The replay must do the work the daemon did: three replays of each
	// measured request (core, time spans, byte spans) count three times
	// the daemon's allocations, rounds, pass runs and prep misses, and
	// the time spans hold one pass span per pass run the daemon counted.
	passSpans := 0
	for _, sp := range tr.spans {
		if strings.HasPrefix(sp.layer.String(), "pass.") {
			passSpans++
		}
	}
	for _, pc := range pathCounters {
		served, replayed := int64(0), int64(0)
		for _, name := range pc.counters {
			served += daemonAfter[name] - daemonBefore[name]
			replayed += localAfter[name] - localBefore[name]
		}
		if replayed != 3*served {
			out.problem("%s: the daemon counted %d over the measured requests, the three replays %d", pc.what, served, replayed)
		}
	}
	if served := daemonAfter["pass_runs_total"] - daemonBefore["pass_runs_total"]; int64(passSpans) != served {
		out.problem("the daemon ran %d passes over the measured requests, the replay timed %d", served, passSpans)
	}
	if err := dumpSpans(cfg, tr, br); err != nil {
		return nil, err
	}

	ops := len(measured)
	layerReport(out, tr, br, ops, untraced, allLayers)
	evictions := misses - (core.Len() - lenBefore)
	hitShare := float64(hits) / float64(hits+misses)
	out.set("cache.hit_share", "share", hitShare)
	out.set("cache.evictions_per_op", "count", float64(evictions)/float64(ops))
	out.set("cache.entries", "count", float64(core.Len()))
	out.exact["cache.hit_share"] = hitShare
	if !cold && hitShare != 1 {
		out.problem("serve-warm replay hit share %v, want exactly 1", hitShare)
	}

	// The edge is what serving adds to the core. A daemon faster than
	// its own replayed core no longer takes the path the replay times.
	edge := servedTotal - untraced
	if edge < 0 {
		out.problem("served latency over one connection, %v per request, is below the replayed core's %v",
			servedTotal/time.Duration(ops), untraced/time.Duration(ops))
	}
	out.set("edge.share", "share", float64(edge)/float64(servedTotal))
	out.set("edge.us_per_op", "us", float64(edge.Nanoseconds())/float64(ops)/1e3)
	out.set("edge.shed_share", "share", float64(shed)/float64(len(fill)+len(measured)))

	replayed := append(append([]int(nil), fillIDs...), measured...)
	if !cold {
		replayed = fillIDs
	}
	shares := make([]float64, len(replayed))
	if err := forEach(len(replayed), func(i int) (err error) {
		shares[i], err = analyticShare(&in.reqs[replayed[i]], totals[replayed[i]])
		return err
	}); err != nil {
		return nil, err
	}
	quality := newQuality()
	for i, id := range replayed {
		quality.add(in.reqs[id].Strategy, shares[i])
	}
	allocReport(out, stats, quality)

	out.attempted = ops
	out.failed = mismatches
	out.info["served_us_per_op"] = float64(servedTotal.Nanoseconds()) / float64(ops) / 1e3
	out.info["replay_cache_hits"] = hits
	out.info["replay_cache_misses"] = misses
	out.info["pass_spans"] = passSpans
	return out, nil
}

// pathCounters are the telemetry counters that count the work of a
// cache miss. The replay builds prep explicitly, so its allocator finds
// the prep built where the daemon's builds it: prep requests are
// compared as hits and misses together.
var pathCounters = []struct {
	what     string
	counters []string
}{
	{"allocations", []string{"alloc_funcs_total"}},
	{"rounds", []string{"alloc_rounds_total"}},
	{"pass runs", []string{"pass_runs_total"}},
	{"prep liveness requests", []string{"prep_live_hits_total", "prep_live_misses_total"}},
	{"prep graph requests", []string{"prep_graph_hits_total", "prep_graph_misses_total"}},
}

// pathCounts reads the in-process pathCounters.
func pathCounts(b *telemetry.Builtin) map[string]int64 {
	return map[string]int64{
		"alloc_funcs_total":       b.AllocFuncs.Value(),
		"alloc_rounds_total":      b.AllocRounds.Value(),
		"pass_runs_total":         b.PassRuns.Value(),
		"prep_live_hits_total":    b.PrepLiveHits.Value(),
		"prep_live_misses_total":  b.PrepLiveMisses.Value(),
		"prep_graph_hits_total":   b.PrepGraphHits.Value(),
		"prep_graph_misses_total": b.PrepGraphMisses.Value(),
	}
}

// traceSweep is the traced sweep run: every cell is allocated three
// times on three freshly compiled suites — through
// Program.AllocateWithOptions (the untraced core), and decomposed into
// its layers with time spans and with byte spans.
func traceSweep(cfg config) (*outcome, error) {
	out := newOutcome()
	cells := sweepCells()
	// A cell averages some 45 spans.
	spans := traceSweepPasses * len(cells) * 64
	tr, br := newRecorder(false, spans), newRecorder(true, spans)
	coin := rand.New(rand.NewSource(cfg.seed))
	stats := &allocStats{}
	quality := newQuality()
	strats := callcost.Strategies()
	var untraced time.Duration
	mismatches, ops := 0, 0
	for pass := 0; pass < traceSweepPasses; pass++ {
		suites := make([]compiledSuite, 3)
		for i := range suites {
			s, err := compileSuite()
			if err != nil {
				return nil, err
			}
			suites[i] = s
		}
		core, timed, byteSuite := suites[0], suites[1], suites[2]
		for _, i := range slices.Concat(sweepOrder(cells, cfg.seed)...) {
			c := cells[i]
			tr.req, br.req = int32(ops), int32(ops)
			ops++
			strat := strats[c.strat]
			var aCore, aTimed *callcost.Allocation
			runCore := func() (err error) {
				t0 := time.Now()
				aCore, err = core.progs[c.prog].AllocateWithOptions(strat, c.cfg, core.pfs[c.prog], sweepOptions())
				untraced += time.Since(t0)
				return err
			}
			runTimed := func() (err error) {
				aTimed, err = replayCell(timed.progs[c.prog], timed.pfs[c.prog], c, strat, tr)
				return err
			}
			first, second := runCore, runTimed
			if coin.Intn(2) == 1 {
				first, second = runTimed, runCore
			}
			if err := first(); err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
			if err := second(); err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
			if _, err := replayCell(byteSuite.progs[c.prog], byteSuite.pfs[c.prog], c, strat, br); err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}

			want, err1 := json.Marshal(server.RenderResult(aCore, core.pfs[c.prog]))
			got, err2 := json.Marshal(server.RenderResult(aTimed, timed.pfs[c.prog]))
			if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
				mismatches++
				out.problem("cell %d: replayed Result differs from Program.AllocateWithOptions", i)
			}
			if pass == 0 {
				for _, p := range aCore.Plans {
					stats.add(c.strat, p.Alloc)
				}
				quality.add(c.strat, aCore.Overhead(core.pfs[c.prog]).Total()/weightedInstrs(core.progs[c.prog], core.pfs[c.prog]))
			}
		}
	}
	if err := dumpSpans(cfg, tr, br); err != nil {
		return nil, err
	}
	layerReport(out, tr, br, ops, untraced, sweepLayers)
	out.set("cache.hit_share", "share", 0)
	out.set("cache.evictions_per_op", "count", 0)
	out.set("cache.entries", "count", 0)
	out.set("edge.share", "share", 0)
	out.set("edge.us_per_op", "us", 0)
	out.set("edge.shed_share", "share", 0)
	allocReport(out, stats, quality)
	out.attempted = ops
	out.failed = mismatches
	return out, nil
}
