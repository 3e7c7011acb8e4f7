package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTransferSecHandWorked(t *testing.T) {
	// 5000 rows × 500 B on the default link: 2.5 MB / 125 MB/s = 0.02 s,
	// + 0.5 s latency, + 5000 × 0.2 µs = 0.001 s.
	if got := transferSec(nil, "hive", master, 5000, 500); !near(got, 0.521, 1e-12) {
		t.Fatalf("hive→master = %v, want 0.521", got)
	}
	if got := transferSec(nil, master, "hive", 5000, 500); !near(got, 0.521, 1e-12) {
		t.Fatalf("master→hive = %v, want 0.521", got)
	}
	// Remote to remote routes through the master: two hops, each on its
	// own system's link. hive's override: 1000 rows × 100 B / 250 MB/s =
	// 0.0004 + 0.4 + 0.0001; spark on the default: 0.0008 + 0.5 + 0.0002.
	links := map[string]link{"hive": {Bandwidth: 250e6, Latency: 0.4, PerRowUS: 0.1}}
	if got := transferSec(links, "hive", "spark", 1000, 100); !near(got, 0.9015, 1e-12) {
		t.Fatalf("hive→spark = %v, want 0.9015", got)
	}
	if got := transferSec(links, "hive", "hive", 1000, 100); got != 0 {
		t.Fatalf("same-system transfer = %v, want 0", got)
	}
}

// beatenExplain is a plan the optimizer printed for a single join: the
// greedy placement picked spark (1.01 + 2.48 = 3.49 < 3.79) and then paid
// 0.50 to ship the result to the master.
const beatenExplain = "plan (estimated 3.99s):\n" +
	"  1. transfer 2685 rows × 250 B  hive → spark  (1.01s)\n" +
	"  2. join on spark via spark.broadcast_hash_join (2.48s)\n" +
	"  3. transfer 2685 rows × 8 B  spark → teradata  (0.50s)\n" +
	"rejected alternatives:\n" +
	"  - join 1 on teradata (3.79s)\n" +
	"  - join 1 on hive (11.07s)\n"

func TestParseExplain(t *testing.T) {
	ex, err := parseExplain(beatenExplain)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Total != 3.99 || len(ex.Steps) != 3 || len(ex.Alternatives) != 2 {
		t.Fatalf("parsed %+v", ex)
	}
	st := ex.Steps[0]
	if !st.Transfer || st.Rows != 2685 || st.RowBytes != 250 || st.From != "hive" || st.To != "spark" || st.Sec != 1.01 {
		t.Fatalf("transfer step %+v", st)
	}
	if ex.Steps[1].Transfer || ex.Steps[1].Sec != 2.48 {
		t.Fatalf("join step %+v", ex.Steps[1])
	}
	if placed, n := ex.placementSec(); !near(placed, 3.49, 1e-9) || n != 2 {
		t.Fatalf("placement %v over %d steps, want 3.49 over 2", placed, n)
	}
	if !ex.beatenByAlternative() {
		t.Fatal("3.99 total vs a 3.79 alternative not reported as beaten")
	}
	for _, bad := range []string{"", "plan:\n  1. scan on hive (1.00s)\n", "plan (estimated 1.00s):\n"} {
		if _, err := parseExplain(bad); err == nil {
			t.Errorf("parseExplain(%q) accepted", bad)
		}
	}
}

func TestPlacementSecScanAndAgg(t *testing.T) {
	ex, err := parseExplain("plan (estimated 221.24s):\n" +
		"  1. aggregation on flink (208.90s)\n" +
		"  2. transfer 40000000 rows × 12 B  flink → teradata  (12.34s)\n" +
		"rejected alternatives:\n" +
		"  - aggregation on teradata (439.95s)\n")
	if err != nil {
		t.Fatal(err)
	}
	if placed, _ := ex.placementSec(); placed != 221.24 {
		t.Fatalf("an aggregation alternative prices the whole plan; placement %v, want 221.24", placed)
	}
	if ex.beatenByAlternative() {
		t.Fatal("221.24 vs 439.95 reported as beaten")
	}
}

// validResp is a hand-checked response: a 100000 × 100 B transfer on the
// default link is 0.08 + 0.5 + 0.02 = 0.6 s.
func validResp() queryResp {
	return queryResp{
		SQL: "SELECT ...",
		Explain: "plan (estimated 1.22s):\n" +
			"  1. transfer 5 rows × 100 B  hive → teradata  (0.50s)\n" +
			"  2. transfer 100000 rows × 100 B  hive → teradata  (0.60s)\n" +
			"  3. join on teradata via hive.shuffle_join (0.12s)\n" +
			"rejected alternatives:\n" +
			"  - join 1 on hive (3.44s)\n",
		EstimatedSec: 1.2210737905528768,
		ActualSec:    1.1586920157008203,
		StepActuals:  []float64{0.500005, 0.6, 0.05868701570082028},
	}
}

func TestCheckResponse(t *testing.T) {
	r := validResp()
	if _, err := checkResponse(&r, nil); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	cases := map[string]func(r *queryResp){
		"actual not the sum":    func(r *queryResp) { r.ActualSec += 0.01 },
		"estimate not the sum":  func(r *queryResp) { r.EstimatedSec = 1.5 },
		"NaN step":              func(r *queryResp) { r.StepActuals[2] = math.NaN() },
		"zero estimate":         func(r *queryResp) { r.EstimatedSec = 0 },
		"step count":            func(r *queryResp) { r.StepActuals = r.StepActuals[:2] },
		"transfer off the link": func(r *queryResp) { r.StepActuals[1], r.ActualSec = 0.7, r.ActualSec+0.1 },
		"error slot":            func(r *queryResp) { r.Error = "boom" },
		"cheaper alternative": func(r *queryResp) {
			r.Explain = strings.Replace(r.Explain, "(3.44s)", "(1.00s)", 1)
		},
	}
	for name, mutate := range cases {
		r := validResp()
		mutate(&r)
		if _, err := checkResponse(&r, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same plan under a faster hive link prices its transfers wrong.
	r = validResp()
	if _, err := checkResponse(&r, map[string]link{"hive": churnLinks[0]}); err == nil {
		t.Error("transfers checked against the wrong link were accepted")
	}
}

func TestRowsAnswerHandWorked(t *testing.T) {
	cases := []struct {
		q    rowsQuery
		want [][]float64
	}{
		{rowsQuery{Shape: "filter", K: 3, Col: 2}, [][]float64{{0, 0}, {1, 0}, {2, 1}}},
		{rowsQuery{Shape: "range", Lo: 10, K: 12, Col: 5}, [][]float64{{10, 2}, {11, 2}}},
		{rowsQuery{Shape: "join", K: 2, Col: 10}, [][]float64{{0, 0}, {1, 0}}},
		// a2 groups of rows 0..4: {0,1} {2,3} {4}.
		{rowsQuery{Shape: "group", K: 5, Col: 2}, [][]float64{{0, 2}, {1, 2}, {2, 1}}},
		{rowsQuery{Shape: "joingroup", K: 5, Col: 2}, [][]float64{{0, 2}, {1, 2}, {2, 1}}},
		// SUM(a1) per a2 group: 0+1, 2+3, 4.
		{rowsQuery{Shape: "groupsum", K: 5, Col: 2}, [][]float64{{0, 1}, {1, 5}, {2, 4}}},
	}
	for _, c := range cases {
		got := rowsAnswer(c.q)
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(c.want)
		if string(a) != string(b) {
			t.Errorf("%s: got %s, want %s", c.q.Shape, a, b)
		}
	}
	r := queryResp{Columns: []string{"a2", "COUNT(*)"}, Rows: [][]float64{{2, 1}, {0, 2}, {1, 2}}}
	if err := checkRows(&r, rowsQuery{Shape: "group", K: 5, Col: 2}); err != nil {
		t.Fatalf("rows in another order rejected: %v", err)
	}
	r.Rows[0][1] = 2
	if err := checkRows(&r, rowsQuery{Shape: "group", K: 5, Col: 2}); err == nil {
		t.Fatal("a wrong count was accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{99, "p50"}, {100, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}} {
		q, label := tailQuantile(c.n)
		if label != c.label {
			t.Errorf("n=%d: %s, want %s", c.n, label, c.label)
		}
		if c.n >= 100 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("n=%d: %s leaves fewer than ten samples beyond it", c.n, label)
		}
	}
}

func TestGeneratorsAreSeededAndDistinct(t *testing.T) {
	a, b := hotMix(1), hotMix(1)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("hotMix is not a function of its seed")
	}
	seen := map[string]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("hot mix repeats %q", s)
		}
		seen[s] = true
	}
	if len(a) != 48 {
		t.Fatalf("hot mix has %d statements, want 48", len(a))
	}
	if strings.Join(hotMix(2), "\n") == strings.Join(a, "\n") {
		t.Fatal("hotMix ignores its seed")
	}
	g := newColdGen(7)
	seen = map[string]bool{}
	for i := 0; i < 20000; i++ {
		s := g.next()
		if seen[s] {
			t.Fatalf("cold statement %d repeats %q", i, s)
		}
		seen[s] = true
	}
	for n := 0; n < 4; n++ {
		m := churnMutation(3, n)
		var v map[string]any
		if err := json.Unmarshal(m.Body, &v); err != nil {
			t.Fatalf("mutation %d body: %v", n, err)
		}
		if (m.Link != nil) == (m.Table != "") {
			t.Fatalf("mutation %d is neither or both kinds", n)
		}
	}
}

func TestRespLogKeepsEveryResponse(t *testing.T) {
	l := newRespLog(4)
	for _, s := range []string{"a", "b", "a", "c", "b"} {
		l.add([]byte(s))
	}
	if len(l.bodies) != 3 || len(l.seq) != 5 {
		t.Fatalf("%d distinct, %d recorded", len(l.bodies), len(l.seq))
	}
	for i, want := range []string{"a", "b", "a", "c", "b"} {
		if got := string(l.bodies[l.seq[i]]); got != want {
			t.Fatalf("response %d = %q, want %q", i, got, want)
		}
	}
}

func TestCheckSinglesOrder(t *testing.T) {
	a, b := validResp(), validResp()
	a.SQL, b.SQL = "SELECT a", "SELECT b"
	body := func(r queryResp) []byte {
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sent := []string{"SELECT a", "SELECT b"}
	want := func(i int) string { return sent[i] }
	for _, c := range []struct {
		name  string
		order []queryResp
		ok    bool
	}{
		{"in order", []queryResp{a, b}, true},
		{"swapped", []queryResp{b, a}, false},
	} {
		l := newRespLog(2)
		for _, r := range c.order {
			l.add(body(r))
		}
		o := &outcome{stmts: 2}
		err := o.checkSingles(l, []int{200, 200}, 0, want, noLink, nil)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}
