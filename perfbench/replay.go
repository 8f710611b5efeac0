package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/freq"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/resultcache"
	"repro/internal/rewrite"
	"repro/internal/server"
)

// span is one timed call into a layer, recorded from this package
// around a public function of the program. It holds no pointers, so a
// long recording costs the garbage collector nothing to scan.
type span struct {
	layer  layerID
	req    int32
	parent int32 // index of the enclosing span; -1 for a root
	start  int64 // ns since the recorder's epoch
	end    int64
	// bytes is the heap allocated during the span, recorded by the
	// bytes recorder only: reading runtime/metrics costs more than a
	// clock read, so time and bytes come from two replays of the same
	// requests.
	bytes int64
}

// layerID indexes layerNames.
type layerID uint16

// layerNames are the span names: the roots of a request and a sweep
// cell, then every layer. Spans of pass names outside this list are
// named on first use. Only the goroutine that records spans uses it.
var layerNames = append([]string{"request", "cell"}, allLayers...)

func layerOf(name string) layerID {
	for i, n := range layerNames {
		if n == name {
			return layerID(i)
		}
	}
	layerNames = append(layerNames, name)
	return layerID(len(layerNames) - 1)
}

func (id layerID) String() string { return layerNames[id] }

// recorder keeps spans in memory; a nil recorder records nothing, which
// is the untraced replay.
type recorder struct {
	epoch  time.Time
	bytes  bool
	req    int32
	spans  []span
	stack  []int
	sample []metrics.Sample
	// pipelines holds each strategy's wrapped pipeline, built once.
	pipelines map[callcost.Strategy]*pipeline.Pipeline
}

// newRecorder returns a recorder with room for spans spans, so that
// recording does not grow and copy its buffer mid-replay.
func newRecorder(bytes bool, spans int) *recorder {
	return &recorder{epoch: time.Now(), bytes: bytes, spans: make([]span, 0, spans),
		pipelines: map[callcost.Strategy]*pipeline.Pipeline{},
		sample:    []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *recorder) heapAllocs() int64 {
	metrics.Read(r.sample)
	return int64(r.sample[0].Value.Uint64())
}

func (r *recorder) begin(layer layerID) int {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = int32(r.stack[n-1])
	}
	s := span{layer: layer, req: r.req, parent: parent}
	if r.bytes {
		s.bytes = -r.heapAllocs()
	}
	s.start = time.Since(r.epoch).Nanoseconds()
	r.spans = append(r.spans, s)
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.end = time.Since(r.epoch).Nanoseconds()
	if r.bytes {
		s.bytes += r.heapAllocs()
	}
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTotals sums each layer's self time (and self bytes): a span's
// duration minus the part its child spans cover.
func (r *recorder) selfTotals() (self map[string]int64, selfBytes map[string]int64, roots int64) {
	self, selfBytes = map[string]int64{}, map[string]int64{}
	for _, s := range r.spans {
		d := s.end - s.start
		name := s.layer.String()
		self[name] += d
		selfBytes[name] += s.bytes
		if s.parent >= 0 {
			p := r.spans[s.parent].layer.String()
			self[p] -= d
			selfBytes[p] -= s.bytes
		} else {
			roots += d
		}
	}
	return self, selfBytes, roots
}

func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		line := struct {
			Name   string `json:"name"`
			Req    int32  `json:"req"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Bytes  int64  `json:"bytes,omitempty"`
		}{s.layer.String(), s.req, s.parent, s.start, s.end, s.bytes}
		if err := enc.Encode(&line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedPass wraps one pass of the strategy's own pipeline in a span.
// The wrapper changes no behaviour: it keeps the pass name, and
// forwards the optional Skipper and PostPhaser hooks.
type timedPass struct {
	pipeline.Pass
	layer layerID
	rec   *recorder
}

func (p timedPass) Run(s *pipeline.State) error {
	id := p.rec.begin(p.layer)
	err := p.Pass.Run(s)
	p.rec.end(id)
	return err
}

func (p timedPass) Skip(s *pipeline.State) bool {
	sk, ok := p.Pass.(pipeline.Skipper)
	return ok && sk.Skip(s)
}

func (p timedPass) PostPhase(s *pipeline.State) {
	if pp, ok := p.Pass.(pipeline.PostPhaser); ok {
		pp.PostPhase(s)
	}
}

// withTimedPasses returns opts running strat's default pipeline with
// every pass wrapped in a span. Pass spans come from these wrappers
// rather than from an obs tracer: an enabled tracer switches the
// coalesce pass off the shared round-0 graphs and emits an event per
// decision, so a traced allocation would not be the allocation the
// untraced request makes. Every call site passes one fixed set of
// options, so the wrapped pipeline is built once per strategy value.
func withTimedPasses(strat callcost.Strategy, opts callcost.AllocOptions, rec *recorder) callcost.AllocOptions {
	if rec == nil {
		return opts
	}
	pl := rec.pipelines[strat]
	if pl == nil {
		var passes []pipeline.Pass
		for _, p := range callcost.PipelineFor(strat, opts).Passes() {
			passes = append(passes, timedPass{Pass: p, layer: layerOf("pass." + p.Name()), rec: rec})
		}
		wrapped := pipeline.New(passes...)
		pl = &wrapped
		rec.pipelines[strat] = pl
	}
	opts.Pipeline = pl
	return opts
}

// needsGraphs reports whether a strategy's round 0 always builds the
// interference graphs, so its prep includes them. The scan-based
// strategies build graphs only when a hybrid escalates, inside the
// build-graph pass.
func needsGraphs(names []string) bool { return !slices.Contains(names, "scan") }

// allocStats counts the allocator's per-function outcomes. It is safe
// for concurrent use.
type allocStats struct {
	mu                  sync.Mutex
	funcs, rounds       int
	hybrid, escalations int
}

func (s *allocStats) add(strategy string, fa *regalloc.FuncAlloc) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcs++
	s.rounds += fa.Rounds
	if strategy == "hybrid" {
		s.hybrid++
		if fa.Escalated {
			s.escalations++
		}
	}
}

// allocateFunc is the compute side of one function: prep (the cached
// CFG, liveness and, for graph strategies, interference graphs), the
// pass pipeline, then plan (validation and save/restore planning) —
// the calls server.run's cache miss makes, in the same order, with the
// prep that the first passes would build lazily made explicit.
func allocateFunc(pfn *pipeline.FuncCache, ff *freq.FuncFreq, config machine.Config, strat callcost.Strategy,
	opts callcost.AllocOptions, graphs bool, rec *recorder) (*rewrite.FuncPlan, error) {
	id := rec.begin(lPrep)
	pfn.EnsureLive()
	if graphs {
		pfn.EnsureBase()
	}
	rec.end(id)
	id = rec.begin(lAlloc)
	fa, err := regalloc.AllocatePrepared(pfn, ff, config, strat, rewrite.InsertSpills, opts)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(lPlan)
	err = rewrite.Validate(fa)
	var plan *rewrite.FuncPlan
	if err == nil {
		plan = rewrite.BuildPlan(fa)
	}
	rec.end(id)
	return plan, err
}

// planCache is the one method of resultcache.Cache that a request
// calls; recordingCache stands in for it while the replay's caches are
// filled.
type planCache interface {
	Do(key resultcache.Key, compute func() (*rewrite.FuncPlan, error)) (*rewrite.FuncPlan, bool, error)
}

// recordingCache computes every function and records the keys and
// plans of one request in order, so the fill can be computed in
// parallel and still be inserted into each cache in one fixed order.
type recordingCache struct {
	keys  []resultcache.Key
	plans []*rewrite.FuncPlan
}

func (c *recordingCache) Do(key resultcache.Key, compute func() (*rewrite.FuncPlan, error)) (*rewrite.FuncPlan, bool, error) {
	plan, err := compute()
	if err == nil {
		c.keys = append(c.keys, key)
		c.plans = append(c.plans, plan)
	}
	return plan, false, err
}

// insertInto replays the recorded sequence of cache calls on cache:
// the same hits, misses, insertions and evictions a sequential fill
// would have caused, without recomputing any plan.
func (c *recordingCache) insertInto(cache *resultcache.Cache) error {
	for i, k := range c.keys {
		plan := c.plans[i]
		if _, _, err := cache.Do(k, func() (*rewrite.FuncPlan, error) { return plan, nil }); err != nil {
			return err
		}
	}
	return nil
}

// replayRequest replays one /allocate request through the public calls
// server.run makes: decode, compile, freq, then per function key and
// cache (whose miss runs prep, the passes and plan), then render and
// encode. It returns the response body the daemon would write.
func replayRequest(body []byte, cache planCache, rec *recorder, stats *allocStats) (*server.Response, []byte, error) {
	root := rec.begin(lRequest)
	defer rec.end(root)

	id := rec.begin(lDecode)
	var req server.Request
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin(lCompile)
	prog, err := callcost.Compile(req.Source)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	config := machine.NewConfig(req.Config.RI, req.Config.RF, req.Config.EI, req.Config.EF)
	strat := callcost.Strategies()[req.Strategy]
	if !config.Valid() || strat == nil {
		return nil, nil, fmt.Errorf("invalid request %s/%s", config, req.Strategy)
	}
	id = rec.begin(lFreq)
	pf := prog.StaticFreq()
	rec.end(id)

	opts := callcost.DefaultAllocOptions()
	opts.Ctx = context.Background()
	names := callcost.PipelineFor(strat, opts).Names()
	graphs := needsGraphs(names)
	runOpts := withTimedPasses(strat, opts, rec)
	prep := prog.Prepare()
	plans := make(map[string]*rewrite.FuncPlan, len(prog.IR.Funcs))
	hits, misses := 0, 0
	for _, fn := range prog.IR.Funcs {
		ff := pf.ByFunc[fn.Name]
		id = rec.begin(lKey)
		key, err := resultcache.KeyFor(fn, ff, config, strat.Name(), names)
		rec.end(id)
		if err != nil {
			return nil, nil, err
		}
		id = rec.begin(lCache)
		plan, hit, err := cache.Do(key, func() (*rewrite.FuncPlan, error) {
			plan, err := allocateFunc(prep.Func(fn.Name), ff, config, strat, runOpts, graphs, rec)
			if err != nil {
				return nil, err
			}
			stats.add(req.Strategy, plan.Alloc)
			// The daemon's cache keeps only what rendering needs.
			plan.Alloc.Ranges = nil
			plan.Alloc.Live = nil
			plan.Alloc.Graphs = [ir.NumClasses]*interference.Graph{}
			return plan, nil
		})
		rec.end(id)
		if err != nil {
			return nil, nil, err
		}
		if hit {
			hits++
		} else {
			misses++
		}
		plans[fn.Name] = plan
	}
	a := &callcost.Allocation{Program: prog, Config: config, Strategy: strat.Name(), Plans: plans}
	id = rec.begin(lRender)
	res := server.RenderResult(a, pf)
	rec.end(id)
	resp := &server.Response{Result: res, CacheHits: hits, CacheMisses: misses}
	id = rec.begin(lEncode)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	rec.end(id)
	return resp, buf.Bytes(), err
}

// replayCell is one sweep cell decomposed into its layers: the calls
// Program.AllocateWithOptions makes for each function, sequentially.
func replayCell(prog *callcost.Program, pf *freq.ProgramFreq, c cell, strat callcost.Strategy,
	rec *recorder) (*callcost.Allocation, error) {
	root := rec.begin(lCell)
	defer rec.end(root)
	opts := sweepOptions()
	graphs := needsGraphs(callcost.PipelineFor(strat, opts).Names())
	runOpts := withTimedPasses(strat, opts, rec)
	prep := prog.Prepare()
	a := &callcost.Allocation{Program: prog, Config: c.cfg, Strategy: strat.Name(),
		Plans: make(map[string]*rewrite.FuncPlan, len(prog.IR.Funcs))}
	for _, fn := range prog.IR.Funcs {
		plan, err := allocateFunc(prep.Func(fn.Name), pf.ByFunc[fn.Name], c.cfg, strat, runOpts, graphs, rec)
		if err != nil {
			return nil, err
		}
		a.Plans[fn.Name] = plan
	}
	return a, nil
}

// layerReport turns the time and bytes recorders of a traced run into
// the per-layer metrics. ops is the number of replayed operations and
// untraced the summed untraced in-process core of the same operations.
func layerReport(out *outcome, tr, br *recorder, ops int, untraced time.Duration, layers []string) {
	self, _, traced := tr.selfTotals()
	_, selfBytes, _ := br.selfTotals()
	accounted := int64(0)
	for _, l := range layers {
		accounted += self[l]
	}
	for _, l := range allLayers {
		share, us, kb := 0.0, 0.0, 0.0
		if slices.Contains(layers, l) {
			share = float64(self[l]) / float64(traced)
			us = float64(self[l]) / float64(ops) / 1e3
			kb = float64(selfBytes[l]) / float64(ops) / 1024
		}
		out.set(l+".share", "share", share)
		if l != "alloc" {
			out.set(l+".us_per_op", "us", us)
		}
		if byteLayers[l] {
			out.set(l+".kb_per_op", "KiB", kb)
		}
	}
	u := float64(untraced.Nanoseconds())
	unaccounted := (u - float64(accounted)) / u
	overhead := (float64(traced) - u) / u
	out.set("unaccounted_share", "share", unaccounted)
	out.set("trace.overhead_share", "share", overhead)
	if unaccounted > 0.1 || unaccounted < -0.1 {
		out.problem("layer self times account for the untraced core only within %.3f, not a tenth", unaccounted)
	}
	out.info["replayed_ops"] = ops
	out.info["untraced_core_us_per_op"] = u / float64(ops) / 1e3
	out.info["traced_core_us_per_op"] = float64(traced) / float64(ops) / 1e3
	out.info["spans"] = len(tr.spans)
}

// Layer IDs of the spans recorded outside the pass pipeline.
var (
	lRequest, lCell                        = layerOf("request"), layerOf("cell")
	lDecode, lCompile, lFreq, lKey, lCache = layerOf("decode"), layerOf("compile"), layerOf("freq"), layerOf("key"), layerOf("cache")
	lPrep, lAlloc, lPlan, lRender, lEncode = layerOf("prep"), layerOf("alloc"), layerOf("plan"), layerOf("render"), layerOf("encode")
)

// allLayers is every layer with a time share, in ROADMAP order; a
// workload that does not pass through a layer reports zeros for it.
var allLayers = []string{
	"decode", "compile", "freq", "key", "cache", "prep",
	"pass.liveness", "pass.build-graph", "pass.coalesce", "pass.liverange",
	"pass.color", "pass.scan", "pass.spill-rewrite",
	"alloc", "plan", "render", "encode",
}

// byteLayers are the layers that also report heap bytes per operation.
var byteLayers = map[string]bool{
	"decode": true, "compile": true, "freq": true, "key": true, "prep": true,
	"plan": true, "render": true, "encode": true,
}

// sweepLayers are the layers a sweep cell passes through.
var sweepLayers = []string{"prep", "pass.liveness", "pass.build-graph", "pass.coalesce",
	"pass.liverange", "pass.color", "pass.scan", "pass.spill-rewrite", "alloc", "plan"}

// quality accumulates each strategy's analytic overhead shares, in the
// replay's fixed order.
type quality struct {
	sum map[string]float64
	n   map[string]int
}

func newQuality() *quality { return &quality{sum: map[string]float64{}, n: map[string]int{}} }

func (q *quality) add(strategy string, share float64) {
	q.sum[strategy] += share
	q.n[strategy]++
}

// allocReport sets the allocator's outcome counts and each strategy's
// mean analytic overhead share (zero for a strategy the workload does
// not use).
func allocReport(out *outcome, st *allocStats, q *quality) {
	rounds, esc := 0.0, 0.0
	if st.funcs > 0 {
		rounds = float64(st.rounds) / float64(st.funcs)
	}
	if st.hybrid > 0 {
		esc = float64(st.escalations) / float64(st.hybrid)
	}
	out.set("alloc.rounds_per_func", "rounds", rounds)
	out.set("alloc.escalation_share", "share", esc)
	out.exact["alloc.rounds_per_func"] = rounds
	out.exact["alloc.escalation_share"] = esc
	var names []string
	for n := range callcost.Strategies() {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		v := 0.0
		if q.n[n] > 0 {
			v = q.sum[n] / float64(q.n[n])
		}
		out.set("quality."+n+".overhead_analytic", "ops/insn", v)
		out.exact["quality."+n+".overhead_analytic"] = v
	}
	out.info["allocated_funcs"] = st.funcs
}

func dumpSpans(cfg config, tr, br *recorder) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if err := tr.dump(filepath.Join(cfg.out, "spans-time-"+base+".jsonl")); err != nil {
		return err
	}
	return br.dump(filepath.Join(cfg.out, "spans-bytes-"+base+".jsonl"))
}
