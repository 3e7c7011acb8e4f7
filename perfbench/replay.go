package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"intellisphere/internal/admission"
	"intellisphere/internal/catalog"
	"intellisphere/internal/core"
	"intellisphere/internal/core/hybrid"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/demo"
	"intellisphere/internal/durable"
	"intellisphere/internal/engine"
	"intellisphere/internal/metrics"
	"intellisphere/internal/obs"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/plan"
	"intellisphere/internal/querygrid"
	"intellisphere/internal/registry"
	"intellisphere/internal/remote"
	"intellisphere/internal/rowengine"
	"intellisphere/internal/server"
	"intellisphere/internal/sqlparse"
)

// perLayer lists the per-layer metrics --trace 1 prints, with their units.
// Those read from the server process during the end-to-end window come
// from serverLayerMetrics; the rest from the in-process replay.
var perLayer = []struct{ name, unit string }{
	{"server.self_us", "us"},
	{"server.resp_bytes_per_stmt", "B"},
	{"server.write_syscalls_per_stmt", "count"},
	{"server.ctx_switches_per_stmt", "count"},
	{"admission.acquire_us", "us"},
	{"engine.query_us", "us"},
	{"engine.self_us", "us"},
	{"engine.mutation_us", "us"},
	{"sqlparse.parse_us", "us"},
	{"optimizer.plan_miss_us", "us"},
	{"optimizer.plan_hit_us", "us"},
	{"optimizer.cache_hit_ratio", "ratio"},
	{"optimizer.estimates_per_stmt", "count"},
	{"optimizer.explain_us", "us"},
	{"optimizer.beaten_plan_share", "ratio"},
	{"subop.estimate_us", "us"},
	{"logicalop.estimate_us", "us"},
	{"logicalop.log_records", "count"},
	{"remote.execute_us", "us"},
	{"querygrid.transfer_us", "us"},
	{"rowengine.execute_us", "us"},
	{"rowengine.ns_per_input_row", "ns"},
	{"metrics.accuracy_observe_ns", "ns"},
	{"obs.event_us", "us"},
	{"durable.append_us", "us"},
	{"durable.bytes_per_mutation", "B"},
	{"runtime.alloc_bytes_per_stmt", "B"},
	{"runtime.gc_cycles_per_kstmt", "count"},
	{"runtime.heap_inuse_mib", "MiB"},
	{"trace.overhead_pct", "%"},
}

// replayReq is one request of a workload's input sequence: a statement, a
// batch, or an admin mutation.
type replayReq struct {
	sqls  []string
	batch bool
	mut   *mutation
}

// replayInputs rebuilds the exact request sequence the end-to-end run
// sends (its untimed warm-up included) from the same generators.
func replayInputs(name string, seed int64, rounds int) (reqs []replayReq, streamRound int) {
	one := func(s string) replayReq { return replayReq{sqls: []string{s}} }
	switch name {
	case "hot-stream":
		mix := hotMix(seed)
		for r := 0; r <= rounds; r++ {
			for _, s := range mix {
				reqs = append(reqs, one(s))
			}
		}
		return reqs, len(mix)
	case "cold-batch":
		gen := newColdGen(seed)
		for b := 0; b < 4+rounds; b++ {
			batch := make([]string, coldBatchSize)
			for j := range batch {
				batch[j] = gen.next()
			}
			reqs = append(reqs, replayReq{sqls: batch, batch: true})
		}
	case "rows-join":
		mix := rowsMix(seed)
		for r := 0; r <= rounds; r++ {
			for _, q := range mix {
				reqs = append(reqs, one(q.SQL))
			}
		}
	case "admin-churn":
		mix := hotMix(seed)
		for _, s := range mix {
			reqs = append(reqs, one(s))
		}
		for n := 0; n < rounds; n++ {
			m := churnMutation(seed, n)
			reqs = append(reqs, replayReq{mut: &m})
			for i := 0; i < churnEvery; i++ {
				reqs = append(reqs, one(mix[i%len(mix)]))
			}
		}
	}
	return reqs, 0
}

// buildFed builds the federation cmd/serve builds with -logical-remote and
// default flags.
func buildFed() (*demo.Federation, error) {
	return demo.BuildFederation(demo.Config{Seed: 1, LogicalRemote: true})
}

// replay runs the traced in-process replay of a workload. Four sides, each
// on its own fresh federation built as cmd/serve builds it, take every
// request in turn, so each request meets the same cache state on every side
// and host drift hits all sides alike:
//
//   - the server side sends it through server.Handler, assembled as
//     cmd/serve assembles it (a hot-stream round is one /query/stream
//     request carrying the round's statements);
//   - the engine side calls Engine.QueryContext / QueryBatch or the admin
//     mutation directly;
//   - the composed side runs the request pipeline itself from the layers'
//     public functions (admission, sqlparse, the optimizer over the
//     engine's catalog, grid and estimators, the estimators, remote
//     execution, querygrid, rowengine, the accuracy window, the event
//     recorder and the WAL), one span per call, nested under the request;
//   - the untraced side runs the composed pipeline without spans; the
//     difference is the tracing overhead.
//
// server.self_us is the handler's time minus the engine side's on the same
// request; engine.self_us is the engine side's time minus the composed
// side's parse, plan, remote and rowengine spans on the same request.
//
// Spans are written to spansPath as JSON lines.
func replay(name string, seed int64, rounds int, spansPath string) (map[string]float64, error) {
	reqs, streamRound := replayInputs(name, seed, rounds)
	dataDir := filepath.Join(filepath.Dir(spansPath), name+"-replay-data")
	defer os.RemoveAll(dataDir)
	mutates := hasMutations(reqs)

	srv, err := newServerSide(mutates, filepath.Join(dataDir, "server"))
	if err != nil {
		return nil, fmt.Errorf("server side: %w", err)
	}
	defer srv.close()
	eng, err := newEngineSide(mutates, filepath.Join(dataDir, "engine"))
	if err != nil {
		return nil, fmt.Errorf("engine side: %w", err)
	}
	defer eng.close()
	tr := newTracer(true, 50000)
	traced, err := newComposed(tr, filepath.Join(dataDir, "composed"), mutates)
	if err != nil {
		return nil, fmt.Errorf("composed side: %w", err)
	}
	defer traced.close()
	untraced, err := newComposed(newTracer(false, 0), filepath.Join(dataDir, "untraced"), mutates)
	if err != nil {
		return nil, fmt.Errorf("untraced side: %w", err)
	}
	defer untraced.close()

	// A unit is what the server side takes as one request: a hot-stream
	// round, otherwise one request.
	unit := 1
	if streamRound > 0 {
		unit = streamRound
	}
	// Self times are medians of per-request differences between sides, so
	// a GC pause on one side does not swing them.
	var serverSelf, engineSelf []float64
	var tracedNS, untracedNS float64
	runtime.GC()
	for i := 0; i < len(reqs); i += unit {
		part := reqs[i : i+unit]
		handlerNS, err := srv.do(part, streamRound > 0)
		if err != nil {
			return nil, fmt.Errorf("server side: %w", err)
		}
		engNS := make([]float64, len(part))
		for j := range part {
			if engNS[j], err = eng.do(&part[j]); err != nil {
				return nil, fmt.Errorf("engine side: %w", err)
			}
			handlerNS -= engNS[j]
		}
		serverSelf = append(serverSelf, handlerNS/float64(len(part)))
		for j := range part {
			tr.req = int64(i + j + 1)
			tr.children = 0
			start := time.Now()
			if err := traced.request(&part[j]); err != nil {
				return nil, fmt.Errorf("composed side: %w", err)
			}
			tracedNS += float64(time.Since(start).Nanoseconds())
			if part[j].mut == nil {
				engineSelf = append(engineSelf, engNS[j]-float64(tr.children))
			}
			start = time.Now()
			if err := untraced.request(&part[j]); err != nil {
				return nil, fmt.Errorf("untraced side: %w", err)
			}
			untracedNS += float64(time.Since(start).Nanoseconds())
		}
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	logRecords, walBytes := eng.finish()

	var stmts, queryReqs, mutations float64
	for _, r := range reqs {
		if r.mut != nil {
			mutations++
			continue
		}
		queryReqs++
		stmts += float64(len(r.sqls))
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	s := tr.stats
	perCall := func(n string) float64 { return us(s.get(n).perCall()) }
	perItem := func(n string) float64 { return us(s.get(n).perItem()) }
	out := map[string]float64{}
	out["engine.query_us"] = us(eng.queryNS / queryReqs)
	out["engine.mutation_us"] = 0
	if mutations > 0 {
		out["engine.mutation_us"] = us(eng.mutationNS / mutations)
	}
	out["engine.self_us"] = us(median(engineSelf))
	out["server.self_us"] = us(median(serverSelf))
	out["admission.acquire_us"] = perCall("admission.acquire")
	out["sqlparse.parse_us"] = perCall("sqlparse.parse")
	out["optimizer.plan_miss_us"] = perItem("optimizer.plan_miss")
	out["optimizer.plan_hit_us"] = perItem("optimizer.plan_hit")
	out["optimizer.estimates_per_stmt"] = float64(s.get("subop.estimate").items+s.get("logicalop.estimate").items) / stmts
	out["optimizer.explain_us"] = perCall("optimizer.explain")
	out["subop.estimate_us"] = perItem("subop.estimate")
	out["logicalop.estimate_us"] = perItem("logicalop.estimate")
	out["logicalop.log_records"] = float64(logRecords)
	out["remote.execute_us"] = perCall("remote.execute")
	out["querygrid.transfer_us"] = perCall("querygrid.transfer")
	out["rowengine.execute_us"] = perCall("rowengine.execute")
	out["rowengine.ns_per_input_row"] = s.get("rowengine.execute").perItem()
	out["metrics.accuracy_observe_ns"] = s.get("metrics.accuracy_observe").perCall()
	out["obs.event_us"] = perCall("obs.event")
	out["durable.append_us"] = perCall("durable.append")
	out["durable.bytes_per_mutation"] = 0
	if mutations > 0 {
		out["durable.bytes_per_mutation"] = float64(walBytes) / mutations
	}
	out["runtime.alloc_bytes_per_stmt"] = float64(eng.allocBytes) / stmts
	out["trace.overhead_pct"] = 100 * (tracedNS - untracedNS) / untracedNS
	return out, nil
}

// ---- server side ---------------------------------------------------------

// discardWriter is a minimal http.ResponseWriter that keeps the last body,
// so the side measures the handler rather than a recorder's bookkeeping.
type discardWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// EnableFullDuplex and FlushError let /query/stream run as it does on a
// real HTTP/1.1 connection. The handler compares the controller's errors
// with http.ErrNotSupported by identity, so a writer without them gets a
// 500 instead of a stream.
func (w *discardWriter) EnableFullDuplex() error { return nil }
func (w *discardWriter) FlushError() error       { return nil }

func (w *discardWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.code = http.StatusOK
	w.body.Reset()
}

type serverSide struct {
	h        http.Handler
	w        *discardWriter
	observer *obs.Observer
	dur      *engine.Durability
}

func newServerSide(mutates bool, dataDir string) (*serverSide, error) {
	fed, err := buildFed()
	if err != nil {
		return nil, err
	}
	s := &serverSide{w: &discardWriter{h: http.Header{}}}
	srv := server.New(fed.Engine).WithFaults(fed.Injectors).WithAdmission(admission.Config{})
	if mutates {
		if s.dur, _, err = engine.OpenDurability(fed.Engine, engine.DurabilityConfig{Dir: dataDir}); err != nil {
			return nil, err
		}
		srv = srv.WithDurability(s.dur)
	}
	s.observer, err = obs.New(obs.Config{
		Events:     obs.RecorderConfig{SampleRate: 1, SlowThreshold: 500 * time.Millisecond},
		Step:       5 * time.Second,
		Objectives: obs.DefaultObjectives(0.999, 250*time.Millisecond, 0, time.Minute, 5*time.Minute, 14),
	})
	if err != nil {
		return nil, err
	}
	srv = srv.WithObservability(s.observer)
	s.observer.Start(srv.ObsSource())
	s.h = srv.Handler(30 * time.Second)
	return s, nil
}

func (s *serverSide) close() {
	s.observer.Stop()
	if s.dur != nil {
		s.dur.Close()
	}
}

// do sends one request (or, for a stream, the whole round as one
// /query/stream request) through the handler and returns its time in ns.
func (s *serverSide) do(part []replayReq, stream bool) (float64, error) {
	var path string
	var body []byte
	switch r := &part[0]; {
	case stream:
		var b bytes.Buffer
		for _, r := range part {
			b.WriteString(r.sqls[0])
			b.WriteByte('\n')
		}
		path, body = "/query/stream", b.Bytes()
	case r.mut != nil:
		path, body = r.mut.Path, r.mut.Body
	case r.batch:
		path = "/query/batch"
		body, _ = json.Marshal(r.sqls)
	default:
		path, body = "/query", sqlBody(r.sqls[0])
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	s.w.reset()
	start := time.Now()
	s.h.ServeHTTP(s.w, req)
	ns := float64(time.Since(start).Nanoseconds())
	if s.w.code != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", path, s.w.code, s.w.body.String())
	}
	return ns, nil
}

func hasMutations(reqs []replayReq) bool {
	for _, r := range reqs {
		if r.mut != nil {
			return true
		}
	}
	return false
}

// ---- engine side ---------------------------------------------------------

// applyMutation decodes an admin request body and applies it to an engine
// the way the /links and /catalog handlers do.
func applyMutation(eng *engine.Engine, m *mutation) error {
	if m.Link != nil {
		var req struct {
			System string               `json:"system"`
			Link   querygrid.LinkConfig `json:"link"`
		}
		if err := json.Unmarshal(m.Body, &req); err != nil {
			return err
		}
		return eng.SetLink(req.System, req.Link)
	}
	var req struct {
		Table *catalog.Table `json:"table"`
	}
	if err := json.Unmarshal(m.Body, &req); err != nil {
		return err
	}
	return eng.RegisterTable(req.Table)
}

// engineSide calls the engine's public entry points directly, with
// durability attached when the workload mutates, and counts the bytes the
// calls allocate.
type engineSide struct {
	fed                 *demo.Federation
	dur                 *engine.Durability
	dataDir             string
	walStart            int64
	queryNS, mutationNS float64
	allocBytes          uint64
	allocs              []rtmetrics.Sample
}

func newEngineSide(mutates bool, dataDir string) (*engineSide, error) {
	fed, err := buildFed()
	if err != nil {
		return nil, err
	}
	e := &engineSide{fed: fed, dataDir: dataDir, allocs: []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if mutates {
		if e.dur, _, err = engine.OpenDurability(fed.Engine, engine.DurabilityConfig{Dir: dataDir}); err != nil {
			return nil, err
		}
		e.walStart = dirBytes(dataDir)
	}
	return e, nil
}

func (e *engineSide) close() {
	if e.dur != nil {
		e.dur.Close()
	}
}

func (e *engineSide) allocated() uint64 {
	rtmetrics.Read(e.allocs)
	return e.allocs[0].Value.Uint64()
}

// do runs one request and returns its time in ns.
func (e *engineSide) do(r *replayReq) (float64, error) {
	eng := e.fed.Engine
	ctx := context.Background()
	var err error
	a0 := e.allocated()
	start := time.Now()
	var ns float64
	switch {
	case r.mut != nil:
		err = applyMutation(eng, r.mut)
		ns = float64(time.Since(start).Nanoseconds())
		e.mutationNS += ns
	case r.batch:
		items := eng.QueryBatch(ctx, r.sqls)
		ns = float64(time.Since(start).Nanoseconds())
		for i, it := range items {
			if it.Err != nil {
				err = fmt.Errorf("%q: %w", r.sqls[i], it.Err)
			}
		}
	default:
		_, err = eng.QueryContext(ctx, r.sqls[0])
		ns = float64(time.Since(start).Nanoseconds())
	}
	if r.mut == nil {
		e.queryNS += ns
		e.allocBytes += e.allocated() - a0
	}
	return ns, err
}

// finish flushes pending estimator feedback and returns flink's execution
// log length and the WAL bytes the mutations appended.
func (e *engineSide) finish() (logRecords int, walBytes int64) {
	eng := e.fed.Engine
	eng.FlushFeedback()
	if est, err := eng.Estimator("flink"); err == nil {
		if h, ok := est.(*hybrid.Estimator); ok {
			p := h.Profile()
			for _, m := range []*logicalop.Model{p.LogicalJoin, p.LogicalAgg, p.LogicalScan} {
				if m != nil {
					logRecords += m.PendingLog()
				}
			}
		}
	}
	if e.dur != nil {
		walBytes = dirBytes(e.dataDir) - e.walStart
	}
	return logRecords, walBytes
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// ---- composed pass ---------------------------------------------------------

// timedEstimator wraps a registered estimator so each Estimate* call is a
// span named after the costing family that answers it.
type timedEstimator struct {
	inner core.Estimator
	span  string
	tr    *tracer
}

func (e *timedEstimator) Approach() core.Approach { return e.inner.Approach() }

// Generation forwards the wrapped estimator's generation, so the plan
// cache invalidates exactly as it does in the engine.
func (e *timedEstimator) Generation() uint64 {
	if v, ok := e.inner.(core.Versioned); ok {
		return v.Generation()
	}
	return 0
}

func timed[T any](e *timedEstimator, n int, f func() (T, error)) (T, error) {
	start := e.tr.now()
	v, err := f()
	e.tr.leaf(e.span, start, e.tr.now(), n)
	return v, err
}

func (e *timedEstimator) EstimateJoin(s plan.JoinSpec) (core.Estimate, error) {
	return timed(e, 1, func() (core.Estimate, error) { return e.inner.EstimateJoin(s) })
}
func (e *timedEstimator) EstimateAgg(s plan.AggSpec) (core.Estimate, error) {
	return timed(e, 1, func() (core.Estimate, error) { return e.inner.EstimateAgg(s) })
}
func (e *timedEstimator) EstimateScan(s plan.ScanSpec) (core.Estimate, error) {
	return timed(e, 1, func() (core.Estimate, error) { return e.inner.EstimateScan(s) })
}
func (e *timedEstimator) EstimateJoinBatch(s []plan.JoinSpec) ([]core.Estimate, error) {
	return timed(e, len(s), func() ([]core.Estimate, error) { return core.EstimateJoins(e.inner, s) })
}
func (e *timedEstimator) EstimateAggBatch(s []plan.AggSpec) ([]core.Estimate, error) {
	return timed(e, len(s), func() ([]core.Estimate, error) { return core.EstimateAggs(e.inner, s) })
}
func (e *timedEstimator) EstimateScanBatch(s []plan.ScanSpec) ([]core.Estimate, error) {
	return timed(e, len(s), func() ([]core.Estimate, error) { return core.EstimateScans(e.inner, s) })
}

// composed is the request pipeline rebuilt from the layers' public
// functions over one federation.
type composed struct {
	tr       *tracer
	fed      *demo.Federation
	adm      *admission.Controller
	opt      *optimizer.Optimizer
	parsed   map[string]*sqlparse.SelectStmt
	rows     map[string]*rowengine.Table
	accuracy map[string]*metrics.Accuracy
	rec      *obs.Recorder
	store    *durable.Store
}

func newComposed(tr *tracer, dataDir string, withStore bool) (*composed, error) {
	fed, err := buildFed()
	if err != nil {
		return nil, err
	}
	eng := fed.Engine
	reg := registry.New[core.Estimator]()
	for _, name := range eng.Systems() {
		est, err := eng.Estimator(name)
		if err != nil {
			return nil, err
		}
		family := est.Approach()
		if h, ok := est.(*hybrid.Estimator); ok {
			family = h.Active()
		}
		span := "subop.estimate"
		if family == core.LogicalOp {
			span = "logicalop.estimate"
		}
		reg.Set(name, &timedEstimator{inner: est, span: span, tr: tr})
	}
	if _, ok := reg.Get(querygrid.Master); !ok {
		return nil, fmt.Errorf("no estimator for the master %q", querygrid.Master)
	}
	c := &composed{
		tr: tr, fed: fed,
		adm:      admission.NewController(admission.Config{}),
		opt:      &optimizer.Optimizer{Catalog: eng.Catalog(), Grid: eng.Grid(), Estimators: reg, Cache: optimizer.NewPlanCache(0)},
		parsed:   map[string]*sqlparse.SelectStmt{},
		rows:     map[string]*rowengine.Table{},
		accuracy: map[string]*metrics.Accuracy{},
		rec:      obs.NewRecorder(obs.RecorderConfig{SampleRate: 1, SlowThreshold: 500 * time.Millisecond}),
	}
	for _, t := range []table{rowsSmall, rowsLarge} {
		if c.rows[t.name], err = rowengine.Materialize(t.name, t.rows); err != nil {
			return nil, err
		}
	}
	if withStore {
		if c.store, _, err = durable.Open(durable.StoreConfig{Dir: dataDir}, durable.RecoverFuncs{}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *composed) close() {
	if c.store != nil {
		c.store.Close()
	}
}

func (c *composed) request(r *replayReq) error {
	tr := c.tr
	root := tr.begin("request")
	defer tr.end(root, 1)
	if r.mut != nil {
		sp := tr.begin("durable.append")
		_, err := c.store.Append(strings.TrimPrefix(r.mut.Path, "/"), json.RawMessage(r.mut.Body))
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		// Applying it to the federation moves the catalog or grid
		// generation, which invalidates the composed plan cache as it does
		// the engine's.
		return applyMutation(c.fed.Engine, r.mut)
	}
	ctx := context.Background()
	sp := tr.begin("admission.acquire")
	release, err := c.adm.Acquire(ctx, "")
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	defer release()
	stmts := make([]*sqlparse.SelectStmt, len(r.sqls))
	for i, s := range r.sqls {
		st, ok := c.parsed[s]
		if !ok {
			sp := tr.begin("sqlparse.parse")
			st, err = sqlparse.Parse(s)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			c.parsed[s] = st
		}
		stmts[i] = st
	}
	plans := make([]*optimizer.Plan, len(stmts))
	hits := make([]bool, len(stmts))
	sp = tr.begin("optimizer.plan_miss")
	if r.batch {
		allHit := true
		for i, pr := range c.opt.PlanBatch(stmts) {
			if pr.Err != nil {
				return pr.Err
			}
			plans[i], hits[i] = pr.Plan, pr.CacheHit
			allHit = allHit && pr.CacheHit
		}
		if allHit {
			tr.rename(sp, "optimizer.plan_hit")
		}
	} else {
		plans[0], hits[0], err = c.opt.PlanCtxHit(ctx, stmts[0])
		if err != nil {
			return err
		}
		if hits[0] {
			tr.rename(sp, "optimizer.plan_hit")
		}
	}
	tr.end(sp, len(stmts))
	for i, p := range plans {
		if !hits[i] {
			sp := tr.begin("optimizer.explain")
			_ = p.Explain()
			tr.end(sp, 1)
		}
		if err := c.execute(stmts[i], p, r.sqls[i]); err != nil {
			return err
		}
	}
	return nil
}

// execute runs a plan's steps on the federation's systems, the row engine
// when every table is materialized, and the event recorder.
func (c *composed) execute(stmt *sqlparse.SelectStmt, p *optimizer.Plan, sql string) error {
	tr := c.tr
	start := time.Now()
	var actual float64
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Kind == "transfer" {
			sp := tr.begin("querygrid.transfer")
			_, err := c.fed.Engine.Grid().TransferCost(st.From, st.System, st.Rows, st.RowSize)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			actual += st.EstimatedSec
			continue
		}
		sys, err := c.fed.Engine.Remote(st.System)
		if err != nil {
			return err
		}
		sp := tr.begin("remote.execute")
		ex, err := dispatch(sys, st)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		actual += ex.ElapsedSec
		key := st.System + "/" + st.Kind
		acc := c.accuracy[key]
		if acc == nil {
			acc = metrics.NewAccuracy(0)
			c.accuracy[key] = acc
		}
		sp = tr.begin("metrics.accuracy_observe")
		acc.Observe(st.EstimatedSec, ex.ElapsedSec)
		tr.end(sp, 1)
	}
	if tables, inputRows, ok := c.materialized(stmt); ok {
		sp := tr.begin("rowengine.execute")
		_, err := rowengine.Execute(stmt, tables)
		tr.end(sp, inputRows)
		if err != nil {
			return err
		}
	}
	sp := tr.begin("obs.event")
	lat := time.Since(start)
	c.rec.Observe(lat, 0)
	if capture, ok := c.rec.Sample(false, lat); ok {
		c.rec.Record(&obs.Event{
			UnixNano: time.Now().UnixNano(), Kind: "query", Capture: capture,
			SQL: sql, StmtHash: obs.StatementHash(sql), Outcome: "ok",
			EstimatedSec: p.EstimatedSec, ActualSec: actual, LatencySec: lat.Seconds(),
		})
	}
	tr.end(sp, 1)
	return nil
}

func (c *composed) materialized(stmt *sqlparse.SelectStmt) (map[string]*rowengine.Table, int, bool) {
	names := []string{stmt.From.Name}
	for _, j := range stmt.Joins {
		names = append(names, j.Table.Name)
	}
	out := map[string]*rowengine.Table{}
	rows := 0
	for _, n := range names {
		t, ok := c.rows[n]
		if !ok {
			return nil, 0, false
		}
		out[n] = t
		rows += len(t.Rows)
	}
	return out, rows, true
}

// dispatch issues one operator step the way the engine does.
func dispatch(sys remote.System, st *optimizer.Step) (remote.Execution, error) {
	switch st.Kind {
	case "join":
		return sys.ExecuteJoin(*st.Join)
	case "aggregation":
		return sys.ExecuteAgg(*st.Agg)
	case "scan":
		return sys.ExecuteScan(*st.Scan)
	case "sort":
		rows, size := st.Rows, st.RowSize
		if rows < 1 {
			rows = 1
		}
		if size < 1 {
			size = 1
		}
		return sys.ExecuteProbe(remote.Probe{Target: remote.Sort, Records: rows, RecordSize: size})
	}
	return remote.Execution{}, fmt.Errorf("unknown step kind %q", st.Kind)
}
