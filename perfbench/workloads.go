package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"

	"intellisphere/internal/demo"
)

// workload is one traffic mix (BENCHMARK.json says why each exists).
// roundsPerSec is the nominal number of whole rounds this host completes per
// second; a run does ceil(seconds × roundsPerSec) rounds, so a run's counts
// and memory do not depend on how fast the host happens to be while it runs.
type workload struct {
	name         string
	roundsPerSec float64
	run          func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{"hot-stream", 700, runHotStream},
	{"cold-batch", 400, runColdBatch},
	{"rows-join", 1.6, runRowsJoin},
	{"admin-churn", 100, runAdminChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx carries one run's settings and its server.
type runCtx struct {
	serveBin string
	dir      string // this run's scratch directory in the checkout
	seed     int64
	rounds   int
	srv      *serverProc
	aux      *http.Client  // the second connection: scrapes and checks
	setups   []setupSample // extra set-up samples taken during the run
	before   snapshot
}

// snapshot is the server-side state read at a window edge.
type snapshot struct {
	proc    procSample
	metrics serverMetrics
	prom    promSample
	steal   int64 // host steal ticks, all CPUs
}

func (rc *runCtx) snap() (snapshot, error) {
	s := snapshot{steal: stealTicks()}
	var err error
	if s.proc, err = rc.srv.sample(); err != nil {
		return s, err
	}
	if s.metrics, err = rc.srv.metrics(rc.aux); err != nil {
		return s, err
	}
	s.prom, err = rc.srv.prom(rc.aux)
	return s, err
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	win       window
	stmts     int       // statements in the window (ops minus mutations)
	qerrs     []float64 // per timed statement
	sims      []float64 // simulated seconds of each timed statement's plan
	before    snapshot
	after     snapshot
	respBytes float64 // mean response bytes per statement
	hitRatio  float64 // plan-cache hit ratio over the window
	beaten    int     // timed statements whose plan total exceeds a printed alternative
}

func (rc *runCtx) markFunc(fail *error) func() {
	return func() {
		s, err := rc.snap()
		if err != nil && *fail == nil {
			*fail = fmt.Errorf("window-start scrape: %w", err)
		}
		rc.before = s
	}
}

func (rc *runCtx) finish(o *outcome) error {
	after, err := rc.snap()
	if err != nil {
		return fmt.Errorf("window-end scrape: %w", err)
	}
	o.before, o.after = rc.before, after
	h := after.metrics.Engine.PlanCache.Hits - o.before.metrics.Engine.PlanCache.Hits
	m := after.metrics.Engine.PlanCache.Misses - o.before.metrics.Engine.PlanCache.Misses
	if h+m > 0 {
		o.hitRatio = float64(h) / float64(h+m)
	}
	return nil
}

// decoded caches the decode and check of each distinct response body.
type decoded struct {
	resp   []queryResp
	err    []error
	done   []bool
	beaten []bool
}

func newDecoded(log *respLog) *decoded {
	n := len(log.bodies)
	return &decoded{resp: make([]queryResp, n), err: make([]error, n), done: make([]bool, n), beaten: make([]bool, n)}
}

// one decodes distinct body i as a single response and checks it once.
func (d *decoded) one(log *respLog, i int32, links map[string]link) (*queryResp, bool, error) {
	if !d.done[i] {
		d.done[i] = true
		if err := json.Unmarshal(log.bodies[i], &d.resp[i]); err != nil {
			d.err[i] = fmt.Errorf("decode response: %w", err)
		} else {
			var ex explained
			ex, d.err[i] = checkResponse(&d.resp[i], links)
			d.beaten[i] = ex.beatenByAlternative()
		}
	}
	return &d.resp[i], d.beaten[i], d.err[i]
}

// addPlan records a timed statement's plan quality.
func (o *outcome) addPlan(r *queryResp, beaten bool) {
	o.qerrs = append(o.qerrs, qError(r.EstimatedSec, r.ActualSec))
	o.sims = append(o.sims, r.ActualSec)
	if beaten {
		o.beaten++
	}
}

// checkSingles decodes and checks every single-statement response of a
// run in send order. Each must be a 200 (status is nil for stream frames),
// answer the statement sent, and pass checkResponse on the links in force.
// want(i) is request i's statement, "" for an admin mutation, which is
// skipped; linkOf(i) is hive's link override in force for it (nil for the
// default). each, when set, runs on the first request with each distinct
// body. Timed statements feed the plan-quality metrics.
func (o *outcome) checkSingles(log *respLog, status []int, warm int, want func(int) string, linkOf func(int) *link, each func(i int, r *queryResp) error) error {
	decs := map[*link]*decoded{}
	var bytesTotal int
	for i, idx := range log.seq {
		sql := want(i)
		if status != nil && status[i] != http.StatusOK {
			return fmt.Errorf("request %d (%q): status %d: %s", i, sql, status[i], log.bodies[idx])
		}
		if sql == "" {
			continue
		}
		l := linkOf(i)
		d := decs[l]
		if d == nil {
			d = newDecoded(log)
			decs[l] = d
		}
		links := map[string]link{}
		if l != nil {
			links["hive"] = *l
		}
		first := !d.done[idx]
		r, beaten, err := d.one(log, idx, links)
		if err != nil {
			return fmt.Errorf("request %d (%q): %w", i, sql, err)
		}
		if r.SQL != sql {
			return fmt.Errorf("request %d answers %q, sent %q", i, r.SQL, sql)
		}
		if first && each != nil {
			if err := each(i, r); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
		if i >= warm {
			o.addPlan(r, beaten)
			bytesTotal += len(log.bodies[idx])
		}
	}
	o.respBytes = float64(bytesTotal) / float64(o.stmts)
	return nil
}

func noLink(int) *link { return nil }

// runHotStream: see BENCHMARK.json. Self-checks: the window's plan-cache
// hit ratio is about 1, and every served plan matches the Explain of an
// engine built without a plan cache.
func runHotStream(rc *runCtx) (*outcome, error) {
	mix := hotMix(rc.seed)
	var markErr error
	win, log, err := streamRun(rc.srv.addr, mix, rc.rounds, 16, rc.markFunc(&markErr))
	if err != nil {
		return nil, err
	}
	if markErr != nil {
		return nil, markErr
	}
	o := &outcome{win: win, stmts: win.ops}
	if err := rc.finish(o); err != nil {
		return nil, err
	}
	uncached, err := uncachedExplains(mix)
	if err != nil {
		return nil, err
	}
	err = o.checkSingles(log, nil, len(mix), func(i int) string { return mix[i%len(mix)] }, noLink,
		func(_ int, r *queryResp) error {
			if r.Rows != nil {
				return fmt.Errorf("rows from a statistics-only statement")
			}
			if r.Explain != uncached[r.SQL] {
				return fmt.Errorf("served plan for %q differs from an uncached engine's:\nserved:\n%s\nuncached:\n%s", r.SQL, r.Explain, uncached[r.SQL])
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if o.hitRatio < 0.999 {
		return nil, fmt.Errorf("hot-stream plan-cache hit ratio %.4f over the window, want ~1", o.hitRatio)
	}
	return o, nil
}

// uncachedExplains plans every statement on a federation built like
// cmd/serve's (same seed, -logical-remote) but with the plan cache off.
func uncachedExplains(sqls []string) (map[string]string, error) {
	fed, err := demo.BuildFederation(demo.Config{Seed: 1, PlanCacheSize: -1, LogicalRemote: true})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(sqls))
	for _, s := range sqls {
		if out[s], err = fed.Engine.Explain(s); err != nil {
			return nil, fmt.Errorf("uncached explain %q: %w", s, err)
		}
	}
	return out, nil
}

const coldBatchSize = 32

// runColdBatch: see BENCHMARK.json. Self-checks: no statement repeats
// within the run, and the window's plan-cache hit ratio is about 0.
func runColdBatch(rc *runCtx) (*outcome, error) {
	gen := newColdGen(rc.seed)
	const warm = 4
	total := warm + rc.rounds
	batches := make([][]string, total)
	bodies := make([][]byte, total)
	seen := map[string]bool{}
	for b := range batches {
		batches[b] = make([]string, coldBatchSize)
		for j := range batches[b] {
			s := gen.next()
			if seen[s] {
				return nil, fmt.Errorf("cold-batch statement repeats: %q", s)
			}
			seen[s] = true
			batches[b][j] = s
		}
		bodies[b], _ = json.Marshal(batches[b])
	}
	var markErr error
	win, log, status, err := requestLoop(rc.srv.addr, warm, rc.rounds, 1, rc.markFunc(&markErr),
		func(i int) (string, []byte) { return "/query/batch", bodies[i] })
	if err != nil {
		return nil, err
	}
	if markErr != nil {
		return nil, markErr
	}
	win.attempted *= coldBatchSize
	win.ops *= coldBatchSize
	win.perReq = coldBatchSize
	o := &outcome{win: win, stmts: win.ops}
	if err := rc.finish(o); err != nil {
		return nil, err
	}
	var bytesTotal int
	for b, idx := range log.seq {
		if status[b] != http.StatusOK {
			return nil, fmt.Errorf("batch %d: status %d: %s", b, status[b], log.bodies[idx])
		}
		var slots []queryResp
		if err := json.Unmarshal(log.bodies[idx], &slots); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if len(slots) != coldBatchSize {
			return nil, fmt.Errorf("batch %d: %d slots for %d statements", b, len(slots), coldBatchSize)
		}
		for j := range slots {
			r := &slots[j]
			if r.SQL != batches[b][j] {
				return nil, fmt.Errorf("batch %d slot %d answers %q, sent %q", b, j, r.SQL, batches[b][j])
			}
			ex, err := checkResponse(r, nil)
			if err != nil {
				return nil, fmt.Errorf("batch %d slot %d (%q): %w", b, j, r.SQL, err)
			}
			if b >= warm {
				o.addPlan(r, ex.beatenByAlternative())
			}
		}
		if b >= warm {
			bytesTotal += len(log.bodies[idx])
		}
	}
	o.respBytes = float64(bytesTotal) / float64(o.stmts)
	if o.hitRatio > 0.001 {
		return nil, fmt.Errorf("cold-batch plan-cache hit ratio %.4f over the window, want ~0", o.hitRatio)
	}
	return o, nil
}

// runRowsJoin: see BENCHMARK.json. Every answer is compared with its
// closed form.
func runRowsJoin(rc *runCtx) (*outcome, error) {
	mix := rowsMix(rc.seed)
	bodies := make([][]byte, len(mix))
	for i, q := range mix {
		bodies[i] = sqlBody(q.SQL)
	}
	var markErr error
	warm := len(mix)
	win, log, status, err := requestLoop(rc.srv.addr, warm, rc.rounds*len(mix), 1, rc.markFunc(&markErr),
		func(i int) (string, []byte) { return "/query", bodies[i%len(mix)] })
	if err != nil {
		return nil, err
	}
	if markErr != nil {
		return nil, markErr
	}
	o := &outcome{win: win, stmts: win.ops}
	if err := rc.finish(o); err != nil {
		return nil, err
	}
	err = o.checkSingles(log, status, warm, func(i int) string { return mix[i%len(mix)].SQL }, noLink,
		func(i int, r *queryResp) error { return checkRows(r, mix[i%len(mix)]) })
	if err != nil {
		return nil, err
	}
	return o, nil
}

// churnInflight is how many admin-churn requests are pipelined on its one
// connection. The server answers a connection's requests in order, so a
// mutation still lands between exactly the statements it was sent between.
const churnInflight = 4

// churnEvery is admin-churn's statements per mutation: two passes over the
// mix, so the first pass after each write re-plans and the second hits.
const churnEvery = 96

// runAdminChurn: see BENCHMARK.json. Each round is one mutation followed by
// churnEvery statements. After the window the server is SIGKILLed and
// restarted on the same data directory: every acked mutation must be
// present and the mix's Explain must match the pre-kill output byte for
// byte.
func runAdminChurn(rc *runCtx) (*outcome, error) {
	mix := hotMix(rc.seed)
	bodies := make([][]byte, len(mix))
	for i, s := range mix {
		bodies[i] = sqlBody(s)
	}
	warm := len(mix)
	per := churnEvery + 1
	muts := make([]mutation, rc.rounds)
	for n := range muts {
		muts[n] = churnMutation(rc.seed, n)
	}
	// linkState[i] is the hive link in force for request i (nil = default).
	linkState := make([]*link, warm+rc.rounds*per)
	var cur *link
	for i := range linkState {
		if i >= warm && (i-warm)%per == 0 {
			if l := muts[(i-warm)/per].Link; l != nil {
				cur = l
			}
		}
		linkState[i] = cur
	}
	var markErr error
	stmtOf := func(i int) int {
		if i < warm {
			return i
		}
		return ((i-warm)%per - 1) % len(mix)
	}
	win, log, status, err := requestLoop(rc.srv.addr, warm, rc.rounds*per, churnInflight, rc.markFunc(&markErr),
		func(i int) (string, []byte) {
			if i >= warm && (i-warm)%per == 0 {
				m := muts[(i-warm)/per]
				return m.Path, m.Body
			}
			return "/query", bodies[stmtOf(i)]
		})
	if err != nil {
		return nil, err
	}
	if markErr != nil {
		return nil, markErr
	}
	o := &outcome{win: win, stmts: win.ops - rc.rounds}
	if err := rc.finish(o); err != nil {
		return nil, err
	}
	err = o.checkSingles(log, status, warm, func(i int) string {
		if i >= warm && (i-warm)%per == 0 {
			return "" // mutation acks are checked on restart
		}
		return mix[stmtOf(i)]
	}, func(i int) *link { return linkState[i] }, nil)
	if err != nil {
		return nil, err
	}
	if err := rc.crashRestart(mix, muts); err != nil {
		return nil, err
	}
	return o, nil
}

func (rc *runCtx) explainAll(mix []string) ([]string, error) {
	out := make([]string, len(mix))
	var buf bytes.Buffer
	for i, s := range mix {
		code, err := post(rc.aux, rc.srv.url("/explain"), sqlBody(s), &buf)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("explain %q: status %d: %s", s, code, buf.String())
		}
		out[i] = buf.String()
	}
	return out, nil
}

// crashRestart SIGKILLs the server, restarts it on the same data
// directory, and checks that every acked mutation survived and that the
// mix plans byte-identically. The restart's start-up counts as one more
// set-up sample.
func (rc *runCtx) crashRestart(mix []string, muts []mutation) error {
	before, err := rc.explainAll(mix)
	if err != nil {
		return err
	}
	rc.srv.kill()
	srv, err := startServer(rc.serveBin, filepath.Join(rc.dir, "serve-restart.log"), "-data-dir", filepath.Join(rc.dir, "data"))
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	rc.srv = srv
	rc.setups = append(rc.setups, setupSample{srv.setup.Seconds(), srv.quietBoot})
	var health struct {
		Durability struct {
			Recovery struct {
				Replayed int `json:"replayed"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	if err := getJSON(rc.aux, srv.url("/health"), &health); err != nil {
		return err
	}
	if health.Durability.Recovery.Replayed != len(muts) {
		return fmt.Errorf("restart replayed %d WAL records, %d mutations were acked", health.Durability.Recovery.Replayed, len(muts))
	}
	var cat []struct {
		Table struct {
			Name string `json:"name"`
		} `json:"table"`
	}
	if err := getJSON(rc.aux, srv.url("/catalog"), &cat); err != nil {
		return err
	}
	have := map[string]bool{}
	for _, e := range cat {
		have[e.Table.Name] = true
	}
	var lastLink *link
	for _, m := range muts {
		if m.Table != "" && !have[m.Table] {
			return fmt.Errorf("acked registration of %s lost in the restart", m.Table)
		}
		if m.Link != nil {
			lastLink = m.Link
		}
	}
	var links struct {
		Links map[string]link `json:"links"`
	}
	if err := getJSON(rc.aux, srv.url("/links"), &links); err != nil {
		return err
	}
	if lastLink != nil && links.Links["hive"] != *lastLink {
		return fmt.Errorf("hive link after restart %+v, last acked override %+v", links.Links["hive"], *lastLink)
	}
	after, err := rc.explainAll(mix)
	if err != nil {
		return err
	}
	for i := range mix {
		if before[i] != after[i] {
			return fmt.Errorf("explain of %q changed across the restart:\nbefore:\n%s\nafter:\n%s", mix[i], before[i], after[i])
		}
	}
	return nil
}

// elapsed is the window's length in seconds.
func (o *outcome) elapsed() float64 {
	return o.win.ends[len(o.win.ends)-1].Sub(o.win.start).Seconds()
}

// rateSlices is how many runs of consecutive requests the window is cut
// into for the throughput estimate.
const rateSlices = 20

// throughput is the median over rateSlices equal runs of consecutive
// requests of the rate at which they completed. A stretch in which other
// guests on the host stall this machine reads low in one or two slices and
// the median passes over it; a cost the server pays steadily (its own GC
// included) is in every slice.
func (o *outcome) throughput() float64 {
	ends := o.win.ends
	n := len(ends)
	if n < rateSlices {
		return float64(n*o.win.perReq) / o.elapsed()
	}
	rates := make([]float64, 0, rateSlices)
	prev := o.win.start
	for k := 1; k <= rateSlices; k++ {
		lo, hi := (k-1)*n/rateSlices, k*n/rateSlices
		end := ends[hi-1]
		rates = append(rates, float64((hi-lo)*o.win.perReq)/end.Sub(prev).Seconds())
		prev = end
	}
	return median(rates)
}

// stealShare is the share of the machine's CPU time the hypervisor gave to
// other guests during the window.
func (o *outcome) stealShare() float64 {
	return float64(o.after.steal-o.before.steal) / (o.elapsed() * clockTicks * float64(runtime.NumCPU()))
}

// metricsOf turns an outcome into the end-to-end metrics.
func metricsOf(o *outcome, setup float64) map[string]float64 {
	lat := append([]float64(nil), o.win.latencies...)
	sort.Float64s(lat)
	q, _ := tailQuantile(len(lat))
	ops := float64(o.win.ops)
	cpuTicks := float64(o.after.proc.cpuTicks - o.before.proc.cpuTicks)
	var simSum float64
	for _, s := range o.sims {
		simSum += s
	}
	return map[string]float64{
		"setup_s":              setup,
		"throughput_ops":       o.throughput(),
		"latency_p50_ms":       quantile(lat, 0.5),
		"latency_tail_ms":      quantile(lat, q),
		"server_cpu_us_per_op": cpuTicks * (1e6 / clockTicks) / ops,
		"server_rss_peak_mib":  float64(o.after.proc.hwmKiB) / 1024,
		"plan_qerror_p50":      median(o.qerrs),
		"sim_plan_s_mean":      simSum / float64(len(o.sims)),
	}
}

// serverLayerMetrics are the per-layer metrics read from the server process
// over the end-to-end window.
func serverLayerMetrics(o *outcome) map[string]float64 {
	st := float64(o.stmts)
	return map[string]float64{
		"server.resp_bytes_per_stmt":     o.respBytes,
		"server.write_syscalls_per_stmt": float64(o.after.proc.syscw-o.before.proc.syscw) / st,
		"server.ctx_switches_per_stmt":   float64(o.after.proc.ctxSwitch-o.before.proc.ctxSwitch) / st,
		"optimizer.cache_hit_ratio":      o.hitRatio,
		"runtime.gc_cycles_per_kstmt":    (o.after.prom.gcCycles - o.before.prom.gcCycles) * 1000 / st,
		"runtime.heap_inuse_mib":         o.after.prom.heapInuse / (1 << 20),
		"optimizer.beaten_plan_share":    float64(o.beaten) / float64(len(o.sims)),
	}
}

func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", k, v)
		}
	}
	return nil
}
