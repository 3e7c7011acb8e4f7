package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// table is one demo-federation table the generators draw from. The
// federation (internal/demo with LogicalRemote on) registers every one of
// them; rows is the catalog cardinality, which the generators use to keep
// filter literals proportional to the table.
type table struct {
	name string
	rows int64
}

// Non-materialized tables; hiveTables are owned by hive. t10000_100 and t100000_100 are
// left out on purpose: they are the two materialized tables, and a statement
// over them alone computes real rows, which is rows-join's job.
var (
	hiveTables = []table{
		{"t10000_250", 10000}, {"t10000_1000", 10000},
		{"t100000_250", 100000}, {"t100000_1000", 100000},
		{"t1000000_100", 1000000}, {"t1000000_250", 1000000}, {"t1000000_1000", 1000000},
		{"t10000000_100", 10000000}, {"t10000000_250", 10000000}, {"t10000000_1000", 10000000},
		{"t80000000_100", 80000000}, {"t80000000_250", 80000000}, {"t80000000_1000", 80000000},
	}
	events    = table{"events", 2000000}         // spark
	users     = table{"users", 200000}           // spark
	warehouse = table{"warehouse", 5000000}      // presto
	dimLocal  = table{"dim_local", 50000}        // the master
	flinkBig  = table{"t80000000_500", 80000000} // flink
	flinkMid  = table{"t500000_250", 500000}     // flink
	// statTables is every non-materialized table.
	statTables = append(append([]table{}, hiveTables...), events, users, warehouse, dimLocal, flinkBig, flinkMid)
)

var (
	dupCols  = []int{1, 2, 5, 10, 20, 50, 100}
	aggFuncs = []string{"COUNT(*)", "SUM(a1)", "MIN(a1)", "MAX(a1)", "AVG(a1)"}
)

// lit returns a filter literal that keeps a seeded share in [lo, hi) of a
// table's rows (at least 1).
func lit(rng *rand.Rand, rows int64, lo, hi float64) int64 {
	f := lo + rng.Float64()*(hi-lo)
	v := int64(float64(rows) * f)
	if v < 1 {
		v = 1
	}
	return v
}

func scanSQL(t table, col int, l int64) string {
	return fmt.Sprintf("SELECT a1, a%d FROM %s WHERE a1 < %d", col, t.name, l)
}

func aggSQL(t table, col int, fn string, l int64) string {
	if l <= 0 {
		return fmt.Sprintf("SELECT a%d, %s FROM %s GROUP BY a%d", col, fn, t.name, col)
	}
	return fmt.Sprintf("SELECT a%d, %s FROM %s WHERE a1 < %d GROUP BY a%d", col, fn, t.name, l, col)
}

func joinSQL(a, b table, ca, cb int, l int64) string {
	return fmt.Sprintf("SELECT %s.a1 FROM %s JOIN %s ON %s.a%d = %s.a%d WHERE %s.a1 < %d",
		a.name, a.name, b.name, a.name, ca, b.name, cb, a.name, l)
}

// hotJoins are the join pairs of the hot mix: same-system, cross-system,
// master-local and flink-side pairs.
var hotJoins = [][2]table{
	{users, events}, {warehouse, hiveTables[8]}, {dimLocal, hiveTables[4]},
	{hiveTables[4], hiveTables[2]}, {flinkMid, users}, {hiveTables[0], users},
	{flinkMid, flinkBig}, {warehouse, users}, {hiveTables[5], events},
	{dimLocal, flinkMid}, {hiveTables[7], hiveTables[3]}, {events, warehouse},
}

// hotMix is hot-stream's and admin-churn's statement mix: 48 distinct
// statements over non-materialized tables. The slots are fixed (16 scans,
// 12 remote-side and 8 flink aggregations, 12 joins) so every seed costs
// the same kinds of plans; the seed draws the filter literals, projected
// and grouping columns, and the order. The unfiltered flink aggregations
// stay on flink (shipping 40 GB dwarfs any operator), so every pass
// executes flink steps and feeds its logical-op execution log.
func hotMix(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []string
	add := func(gen func() string) {
		for {
			s := gen()
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
				return
			}
		}
	}
	for i := 0; i < 16; i++ {
		t := statTables[i%len(statTables)]
		add(func() string { return scanSQL(t, dupCols[1+rng.Intn(6)], lit(rng, t.rows, 0.001, 0.02)) })
	}
	remoteAgg := []table{hiveTables[4], hiveTables[8], hiveTables[10], events, users, warehouse, dimLocal, flinkMid, hiveTables[6], hiveTables[2], events, warehouse}
	for _, t := range remoteAgg {
		t := t
		add(func() string {
			return aggSQL(t, dupCols[1+rng.Intn(6)], aggFuncs[rng.Intn(len(aggFuncs))], lit(rng, t.rows, 0.01, 0.1))
		})
	}
	// The flink aggregations group on fixed columns (their plans dominate
	// the mix's simulated seconds, so the seed only picks the function).
	for _, col := range []int{2, 5, 10, 20, 50, 100, 2, 5} {
		col := col
		add(func() string { return aggSQL(flinkBig, col, aggFuncs[rng.Intn(len(aggFuncs))], 0) })
	}
	for _, p := range hotJoins {
		p := p
		add(func() string { return joinSQL(p[0], p[1], 1, 1, lit(rng, p[0].rows, 0.001, 0.01)) })
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldGen produces cold-batch's statements: an endless sequence in which no
// text repeats within one generator. Shapes cycle in a fixed order (scans,
// filtered aggregations, joins over every system pair, the unfiltered flink
// aggregations are excluded because only 35 of them exist); the seed draws
// tables' literals and columns, and a duplicate draw is bumped until its
// text is new, so every statement misses both the statement and the plan
// cache.
type coldGen struct {
	rng  *rand.Rand
	seen map[string]bool
	i    int
}

func newColdGen(seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), seen: map[string]bool{}}
}

// coldJoins pairs tables across hive, spark, presto, flink and the master.
var coldJoins = [][2]table{
	{users, events}, {warehouse, hiveTables[8]}, {dimLocal, hiveTables[4]}, {hiveTables[3], hiveTables[5]},
	{flinkMid, users}, {hiveTables[1], events}, {flinkMid, flinkBig}, {warehouse, users},
	{dimLocal, flinkMid}, {hiveTables[7], warehouse}, {events, hiveTables[9]}, {hiveTables[11], flinkMid},
}

func (g *coldGen) next() string {
	shape := g.i % 4
	k := g.i / 4
	g.i++
	rng := g.rng
	var t table
	var mk func(l int64) string
	switch shape {
	case 0:
		t = statTables[k%len(statTables)]
		col := dupCols[1+rng.Intn(6)]
		mk = func(l int64) string { return scanSQL(t, col, l) }
	case 1:
		t = statTables[(k*7+3)%len(statTables)]
		col, fn := dupCols[1+rng.Intn(6)], aggFuncs[rng.Intn(len(aggFuncs))]
		mk = func(l int64) string { return aggSQL(t, col, fn, l) }
	default:
		p := coldJoins[(k*2+shape-2)%len(coldJoins)]
		t = p[0]
		ca, cb := dupCols[rng.Intn(3)], dupCols[rng.Intn(3)]
		mk = func(l int64) string { return joinSQL(p[0], p[1], ca, cb, l) }
	}
	l := lit(rng, t.rows, 0.001, 0.05)
	s := mk(l)
	for g.seen[s] {
		l++
		s = mk(l)
	}
	g.seen[s] = true
	return s
}

// Materialized tables the rows-join statements run over. Their rows follow
// the datagen rule: row i (0-based) holds a_d = i/d (integer division) for
// every duplication factor d, and z = 0.
var (
	rowsSmall = table{"t10000_100", 10000}
	rowsLarge = table{"t100000_100", 100000}
)

// rowsQuery is one rows-join statement with the parameters its closed-form
// answer is computed from.
type rowsQuery struct {
	SQL   string
	Shape string // filter, range, group, groupsum, join, joingroup
	K     int64  // upper filter bound (exclusive)
	Lo    int64  // lower filter bound (inclusive), range shape only
	Col   int    // projected or grouping duplication factor
}

// rowsMix is rows-join's statement set: 24 statements, four of each shape
// (filters and a range over each table, a group-by per table, the join
// with and without a group-by), with seeded bounds and columns.
func rowsMix(seed int64) []rowsQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x0ff5))
	var out []rowsQuery
	col := func() int { return dupCols[1+rng.Intn(6)] }
	a, b := rowsSmall.name, rowsLarge.name
	for i := 0; i < 4; i++ {
		k := 20 + rng.Int63n(180)
		c := col()
		out = append(out, rowsQuery{SQL: fmt.Sprintf("SELECT a1, a%d FROM %s WHERE a1 < %d", c, a, k), Shape: "filter", K: k, Col: c})

		lo := rng.Int63n(99000)
		k = lo + 20 + rng.Int63n(180)
		c = col()
		out = append(out, rowsQuery{SQL: fmt.Sprintf("SELECT a1, a%d FROM %s WHERE a1 >= %d AND a1 < %d", c, b, lo, k), Shape: "range", K: k, Lo: lo, Col: c})

		k = 100 + rng.Int63n(1900)
		c = col()
		out = append(out, rowsQuery{SQL: fmt.Sprintf("SELECT a%d, COUNT(*) FROM %s WHERE a1 < %d GROUP BY a%d", c, a, k, c), Shape: "group", K: k, Col: c})

		k = 1000 + rng.Int63n(20000)
		c = col()
		out = append(out, rowsQuery{SQL: fmt.Sprintf("SELECT a%d, SUM(a1) FROM %s WHERE a1 < %d GROUP BY a%d", c, b, k, c), Shape: "groupsum", K: k, Col: c})

		k = 20 + rng.Int63n(180)
		c = col()
		out = append(out, rowsQuery{SQL: fmt.Sprintf("SELECT %s.a1, %s.a%d FROM %s JOIN %s ON %s.a1 = %s.a1 WHERE %s.a1 < %d", a, b, c, a, b, a, b, a, k), Shape: "join", K: k, Col: c})

		k = 100 + rng.Int63n(1900)
		c = col()
		out = append(out, rowsQuery{SQL: fmt.Sprintf("SELECT %s.a%d, COUNT(*) FROM %s JOIN %s ON %s.a1 = %s.a1 WHERE %s.a1 < %d GROUP BY %s.a%d", a, c, a, b, a, b, a, k, a, c), Shape: "joingroup", K: k, Col: c})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// rowsAnswer computes a rows-join statement's answer in closed form from
// the datagen rule (a_d of row i is i/d), without the row engine. Rows come
// back sorted, so a comparison is independent of output order.
func rowsAnswer(q rowsQuery) [][]float64 {
	d := int64(q.Col)
	var out [][]float64
	switch q.Shape {
	case "filter", "join":
		for i := int64(0); i < q.K; i++ {
			out = append(out, []float64{float64(i), float64(i / d)})
		}
	case "range":
		for i := q.Lo; i < q.K; i++ {
			out = append(out, []float64{float64(i), float64(i / d)})
		}
	case "group", "joingroup":
		// Group g holds rows g*d .. g*d+d-1 below K.
		for g := int64(0); g*d < q.K; g++ {
			n := min64(q.K, (g+1)*d) - g*d
			out = append(out, []float64{float64(g), float64(n)})
		}
	case "groupsum":
		for g := int64(0); g*d < q.K; g++ {
			lo, hi := g*d, min64(q.K, (g+1)*d)-1
			out = append(out, []float64{float64(g), float64((lo + hi) * (hi - lo + 1) / 2)})
		}
	}
	sortRows(out)
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// link is the wire shape of a QueryGrid link override (POST /links).
type link struct {
	Bandwidth float64 `json:"bandwidth_bytes_per_sec"`
	Latency   float64 `json:"latency_sec"`
	PerRowUS  float64 `json:"per_row_overhead_us"`
}

// defaultLink mirrors querygrid.DefaultLink: 1 Gbit/s, 0.5 s latency,
// 0.2 µs per row.
var defaultLink = link{Bandwidth: 125e6, Latency: 0.5, PerRowUS: 0.2}

// churnLinks are the two hive link overrides admin-churn alternates
// between: a faster and a slower link than the default, so every override
// changes transfer costs and flips some placements.
var churnLinks = []link{
	{Bandwidth: 250e6, Latency: 0.4, PerRowUS: 0.1},
	{Bandwidth: 62.5e6, Latency: 0.6, PerRowUS: 0.3},
}

// mutation is one admin-churn write: a link override or a table
// registration.
type mutation struct {
	Path string
	Body []byte
	// Link is set for link overrides, Table for registrations.
	Link  *link
	Table string
}

// churnMutation returns admin-churn's n-th mutation of a run: even ones
// override hive's link (alternating churnLinks), odd ones register a new
// 10,000-row hive table named after the seed and n.
func churnMutation(seed int64, n int) mutation {
	if n%2 == 0 {
		l := churnLinks[(n/2)%len(churnLinks)]
		body, _ := json.Marshal(map[string]any{"system": "hive", "link": l})
		return mutation{Path: "/links", Body: body, Link: &l}
	}
	name := "churn_" + strconv.FormatInt(seed, 10) + "_" + strconv.Itoa(n)
	body := []byte(`{"table":{"name":"` + name + `","schema":{"columns":[` + churnColumns + `]},"rows":10000,"system":"hive"}}`)
	return mutation{Path: "/catalog", Body: body, Table: name}
}

// churnColumns is the Figure 10 schema padded to 100-byte records.
var churnColumns = func() string {
	var b strings.Builder
	for i, d := range dupCols {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"a%d","type":0,"width":4,"duplication":%d}`, d, d)
	}
	b.WriteString(`,{"name":"z","type":0,"width":4,"duplication":0},{"name":"dummy","type":1,"width":68,"duplication":0}`)
	return b.String()
}()
