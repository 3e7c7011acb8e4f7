// Command perfbench is the repository benchmark: it runs one of four
// serving workloads against a freshly built cmd/serve and prints every
// end-to-end metric, or with --trace 1 every per-layer metric, as the last
// line of its output. See README.md for the workloads, the metrics and the
// figures measured with it.
//
// Normally run through run.sh, which builds both binaries from the
// checkout first:
//
//	bash perfbench/run.sh --workload hot-stream --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --repeat 10 --workload all --seconds 12
//	bash perfbench/run.sh --smoke
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupBoots is how many quiet start-ups a run times; set-up time is their
// median. Start-up takes tens of milliseconds, so a single exec would be at
// the mercy of one scheduling hiccup.
const setupBoots = 11

// maxBoots bounds the boots a run makes while looking for quiet ones.
const maxBoots = 30

func quietCount(s []setupSample) int {
	n := 0
	for _, x := range s {
		if x.quiet {
			n++
		}
	}
	return n
}

// setupMedian is the median start-up time over the quiet boots, or over all
// boots when fewer than three were quiet.
func setupMedian(s []setupSample) (sec float64, quiet int) {
	var q, all []float64
	for _, x := range s {
		all = append(all, x.sec)
		if x.quiet {
			q = append(q, x.sec)
		}
	}
	if len(q) < 3 {
		return median(all), len(q)
	}
	return median(q), len(q)
}

// replaySeconds caps the traced replay at this many nominal seconds of the
// workload's rounds (the first ones of the run's inputs): the replay runs
// every request four times, and per-call figures need no more.
const replaySeconds = 5

// endToEnd lists the end-to-end metrics with their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops", "op/s"},
	{"latency_p50_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"server_rss_peak_mib", "MiB"},
	{"plan_qerror_p50", "ratio"},
	{"sim_plan_s_mean", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Reference lines are printed for people, outside the result object:
	// figures too unsteady between runs to gate on.
	Reference []string `json:"-"`
}

type options struct {
	serve, work string
	seconds     float64
	trace       bool
}

func main() {
	var o options
	workload := flag.String("workload", "", "workload name, or all (repeat and smoke modes)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal run length; sets the amount of work")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from the traced replay instead of end-to-end ones")
	repeat := flag.Int("repeat", 0, "run each workload this many times (seeds seed, seed+1, ...) and print each metric's median, quartiles and spread")
	smoke := flag.Bool("smoke", false, "run every workload briefly with every check on")
	flag.StringVar(&o.serve, "serve", "", "cmd/serve binary")
	flag.StringVar(&o.work, "work", ".bench_build/run", "scratch directory for logs, data directories and spans")
	flag.Parse()
	o.seconds, o.trace = float64(*seconds), *trace == 1
	if o.serve == "" {
		fail(errors.New("--serve is required (run through run.sh)"))
	}
	switch {
	case *smoke:
		o.seconds = 0.2
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				o.trace = tr
				res, err := runOnce(o, w, *seed)
				if err != nil {
					fail(fmt.Errorf("smoke %s (trace %v): %w", w.name, tr, err))
				}
				fmt.Printf("smoke %s trace=%v: ok, %d operations\n", w.name, tr, res.Attempted)
			}
		}
	case *repeat > 0:
		if err := repeatMode(o, *workload, *seed, *repeat); err != nil {
			fail(err)
		}
	default:
		w, ok := findWorkload(*workload)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOnce(o, w, *seed)
		if err != nil {
			fail(err)
		}
		printResult(w.name, res)
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runOnce runs one workload. Any failed check is an error: the run then
// prints no result and exits non-zero.
func runOnce(o options, w workload, seed int64) (*result, error) {
	best, err := runServed(o, w, seed)
	if err != nil {
		return nil, err
	}
	out := best.out
	res := &result{Correct: true, Attempted: out.win.attempted, Failed: out.win.failed, Metrics: map[string]metric{}}
	// This shared host's speed is what moves timings between runs here;
	// printing it lets a reader tell a slow host from a regression.
	res.Reference = append(res.Reference, fmt.Sprintf("host: steal share of the window %.3f, calibration loop %.1f ms; set-up from %d quiet of %d boots",
		out.stealShare(), best.calibration.Seconds()*1e3, best.quietBoots, best.boots))
	if !o.trace {
		m := metricsOf(out, best.setup)
		if err := finite(m); err != nil {
			return nil, err
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{Value: m[e.name], Unit: e.unit}
		}
		_, label := tailQuantile(len(out.win.latencies))
		res.Reference = append(res.Reference, fmt.Sprintf("latency_tail_ms %.4f ms (%s of %d requests)", m["latency_tail_ms"], label, len(out.win.latencies)))
		return res, nil
	}
	layers := serverLayerMetrics(out)
	replayRounds := int(math.Ceil(math.Min(o.seconds, replaySeconds) * w.roundsPerSec))
	replayed, err := replay(w.name, seed, replayRounds, filepath.Join(o.work, "spans", w.name+".jsonl"))
	if err != nil {
		return nil, fmt.Errorf("%s traced replay: %w", w.name, err)
	}
	for k, v := range replayed {
		layers[k] = v
	}
	if err := finite(layers); err != nil {
		return nil, err
	}
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	return res, nil
}

// served is what one run against the server measured.
type served struct {
	out               *outcome
	setup             float64
	quietBoots, boots int
	calibration       time.Duration
}

// runServed boots the server, runs the workload's warm-up, window and
// checks, and stops the server. Its logs and data directory are removed
// unless the run fails.
func runServed(o options, w workload, seed int64) (_ *served, err error) {
	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err == nil {
			os.RemoveAll(dir)
		}
	}()
	calibration := hostCalibration()
	rounds := int(math.Ceil(o.seconds * w.roundsPerSec))
	rc := &runCtx{serveBin: o.serve, dir: dir, seed: seed, rounds: rounds, aux: newClient()}
	defer rc.aux.CloseIdleConnections()

	var extra func(i int) []string
	if w.name == "admin-churn" {
		extra = func(i int) []string { return []string{"-data-dir", filepath.Join(dir, "data"+strconv.Itoa(i))} }
	} else {
		extra = func(int) []string { return nil }
	}
	// Start-up is timed on up to maxBoots throwaway boots until setupBoots
	// of them ran while the host stole no CPU time; the server that serves
	// the run is one more sample.
	var setups []setupSample
	for i := 0; i < maxBoots && quietCount(setups) < setupBoots-1; i++ {
		p, err := startServer(o.serve, filepath.Join(dir, "serve-boot.log"), extra(i)...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupSample{p.setup.Seconds(), p.quietBoot})
		p.kill()
	}
	var args []string
	if w.name == "admin-churn" {
		args = []string{"-data-dir", filepath.Join(dir, "data")}
	}
	rc.srv, err = startServer(o.serve, filepath.Join(dir, "serve.log"), args...)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setupSample{rc.srv.setup.Seconds(), rc.srv.quietBoot})
	out, runErr := w.run(rc)
	stopErr := rc.srv.stop()
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w (server log in %s)", w.name, runErr, dir)
	}
	if stopErr != nil {
		return nil, fmt.Errorf("%s: server shutdown: %w", w.name, stopErr)
	}
	setups = append(setups, rc.setups...)
	s := &served{out: out, boots: len(setups), calibration: calibration}
	s.setup, s.quietBoots = setupMedian(setups)
	return s, nil
}

func printResult(name string, r *result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, l := range r.Reference {
		fmt.Printf("  reference: %s\n", l)
	}
}

// repeatMode runs each selected workload n times with consecutive seeds and
// prints, per metric, the median, the quartiles and the spread
// (interquartile distance over the median), so bounds come from data.
func repeatMode(o options, which string, seed int64, n int) error {
	var sel []workload
	for _, w := range workloads {
		if which == "all" || which == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("unknown workload %q", which)
	}
	for _, w := range sel {
		vals := map[string][]float64{}
		failedShare := map[string]bool{}
		start := time.Now()
		for i := 0; i < n; i++ {
			res, err := runOnce(o, w, seed+int64(i))
			if err != nil {
				return err
			}
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("  run %d seed %d:", i+1, seed+int64(i))
			for _, k := range keys {
				fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
			}
			fmt.Printf("; %s\n", res.Reference[0])
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
			failedShare[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
		}
		fmt.Printf("%s: %d runs in %.0fs, failed/attempted %v\n", w.name, n, time.Since(start).Seconds(), keysOf(failedShare))
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			q1, q2, q3 := quartiles(vals[k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
			}
			fmt.Printf("  %-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%\n", k, q2, q1, q3, 100*spread)
		}
	}
	return nil
}

// stealTicks reads the host's cumulative steal time (USER_HZ ticks, all
// CPUs) from /proc/stat: time the hypervisor ran something else while this
// machine's CPUs had work.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

var calibrationSink uint64

// hostCalibration times a fixed loop of arithmetic and random reads and
// writes over 8 MiB in the driver process. It measures no part of the
// program; it shows how fast the host itself was around a run, since this
// shared host's speed drifts by 15–25% even while it reports no steal.
func hostCalibration() time.Duration {
	buf := make([]uint64, 1<<20)
	x := uint64(1)
	start := time.Now()
	for i := 0; i < 1<<23; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[x>>44] += x
	}
	d := time.Since(start)
	calibrationSink += buf[x>>44]
	return d
}

func keysOf(m map[string]bool) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
