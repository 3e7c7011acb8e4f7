package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// queryResp is the wire shape of a /query response, a /query/stream frame
// and a /query/batch slot. Error is set on a failed statement.
type queryResp struct {
	SQL          string      `json:"sql"`
	Explain      string      `json:"explain"`
	EstimatedSec float64     `json:"estimated_sec"`
	ActualSec    float64     `json:"actual_sec"`
	StepActuals  []float64   `json:"step_actuals"`
	Degraded     bool        `json:"degraded"`
	Columns      []string    `json:"columns"`
	Rows         [][]float64 `json:"rows"`
	Error        string      `json:"error"`
}

// explainStep is one numbered plan step of an Explain rendering.
type explainStep struct {
	Desc string
	Sec  float64 // the step estimate, as printed (two decimals)
	// Transfer steps only.
	Transfer       bool
	Rows, RowBytes float64
	From, To       string
}

// explained is a parsed Explain rendering.
type explained struct {
	Total        float64 // "plan (estimated X.XXs)"
	Steps        []explainStep
	Alternatives []alternative
}

// alternative is one rejected placement as Explain prints it.
type alternative struct {
	Desc string
	Sec  float64
}

var (
	reHeader   = regexp.MustCompile(`^plan \(estimated ([0-9.]+)s\):$`)
	reStep     = regexp.MustCompile(`^  \d+\. (.*) \(([0-9.]+)s\)$`)
	reAlt      = regexp.MustCompile(`^  - (.*) \(([0-9.]+)s\)$`)
	reTransfer = regexp.MustCompile(`^transfer ([0-9]+) rows × ([0-9]+) B  (\S+) → (\S+) $`)
)

// parseExplain parses the optimizer's Explain text format.
func parseExplain(text string) (explained, error) {
	var e explained
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 {
		return e, fmt.Errorf("empty explain")
	}
	m := reHeader.FindStringSubmatch(lines[0])
	if m == nil {
		return e, fmt.Errorf("explain header %q", lines[0])
	}
	e.Total, _ = strconv.ParseFloat(m[1], 64)
	alts := false
	for _, l := range lines[1:] {
		if l == "rejected alternatives:" {
			alts = true
			continue
		}
		if alts {
			m := reAlt.FindStringSubmatch(l)
			if m == nil {
				return e, fmt.Errorf("explain alternative line %q", l)
			}
			v, _ := strconv.ParseFloat(m[2], 64)
			e.Alternatives = append(e.Alternatives, alternative{Desc: m[1], Sec: v})
			continue
		}
		m := reStep.FindStringSubmatch(l)
		if m == nil {
			return e, fmt.Errorf("explain step line %q", l)
		}
		st := explainStep{Desc: m[1]}
		st.Sec, _ = strconv.ParseFloat(m[2], 64)
		if t := reTransfer.FindStringSubmatch(m[1]); t != nil {
			st.Transfer = true
			st.Rows, _ = strconv.ParseFloat(t[1], 64)
			st.RowBytes, _ = strconv.ParseFloat(t[2], 64)
			st.From, st.To = t[3], t[4]
		} else if strings.HasPrefix(m[1], "transfer") {
			return e, fmt.Errorf("explain transfer step %q", m[1])
		}
		e.Steps = append(e.Steps, st)
	}
	if len(e.Steps) == 0 {
		return e, fmt.Errorf("explain has no steps")
	}
	return e, nil
}

// placementSec is the chosen placement's estimate in the terms Explain
// prices the rejected alternatives in, with the number of printed step
// estimates summed into it. A scan or aggregation alternative is a whole
// plan, so the placement is the plan total. A join alternative ("join N on
// sys") is priced when the optimizer places that join, so it covers the
// steps up to and including the join and leaves out what follows it: a
// post-join aggregation and the final transfer to the master. The chosen
// placement is then the sum of the printed steps up to the last join.
func (e explained) placementSec() (float64, int) {
	joinAlts := len(e.Alternatives) > 0 && strings.HasPrefix(e.Alternatives[0].Desc, "join ")
	if !joinAlts {
		return e.Total, 0
	}
	last := -1
	for i, st := range e.Steps {
		if strings.HasPrefix(st.Desc, "join ") {
			last = i
		}
	}
	var sum float64
	for _, st := range e.Steps[:last+1] {
		sum += st.Sec
	}
	return sum, last + 1
}

// beatenByAlternative reports whether the plan's total estimate exceeds a
// rejected alternative's printed estimate by more than rounding: the greedy
// join placement does not price the final transfer to the master, so a join
// can land on a remote although keeping it on the master costs less in
// total.
func (e explained) beatenByAlternative() bool {
	for _, alt := range e.Alternatives {
		if e.Total > alt.Sec+2*halfCent {
			return true
		}
	}
	return false
}

// master is the master engine's system name in plans.
const master = "teradata"

// hop is one link crossing: rows×bytes/bandwidth + latency + rows×per-row
// overhead.
func hop(l link, rows, rowBytes float64) float64 {
	return rows*rowBytes/l.Bandwidth + l.Latency + rows*l.PerRowUS/1e6
}

// transferSec recomputes a transfer step's seconds from the links in force
// (links maps a system to its override; others use defaultLink). A transfer
// between two remotes routes through the master: two hops.
func transferSec(links map[string]link, from, to string, rows, rowBytes float64) float64 {
	lk := func(sys string) link {
		if l, ok := links[sys]; ok {
			return l
		}
		return defaultLink
	}
	switch {
	case from == to:
		return 0
	case from == master:
		return hop(lk(to), rows, rowBytes)
	case to == master:
		return hop(lk(from), rows, rowBytes)
	default:
		return hop(lk(from), rows, rowBytes) + hop(lk(to), rows, rowBytes)
	}
}

// Printed estimates carry two decimals; sums of n printed values may drift
// by n half-units.
const halfCent = 0.005 + 1e-9

// checkResponse runs the independent checks on one successful response:
//   - estimated_sec and actual_sec and every step actual are finite and > 0;
//   - actual_sec is the sum of step_actuals, one per Explain step;
//   - estimated_sec is the sum of the step estimates Explain prints;
//   - the chosen placement's estimate is no higher than any rejected
//     alternative's (see placementSec for what a join alternative prices);
//   - every transfer step's seconds match rows×bytes/bandwidth + latency +
//     rows×per-row overhead on the links in force, both as printed and as
//     executed (a transfer's actual is its grid estimate).
func checkResponse(r *queryResp, links map[string]link) (explained, error) {
	if r.Error != "" {
		return explained{}, fmt.Errorf("statement failed: %s", r.Error)
	}
	pos := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("%s = %v, want finite and > 0", name, v)
		}
		return nil
	}
	if err := pos("estimated_sec", r.EstimatedSec); err != nil {
		return explained{}, err
	}
	if err := pos("actual_sec", r.ActualSec); err != nil {
		return explained{}, err
	}
	ex, err := parseExplain(r.Explain)
	if err != nil {
		return ex, err
	}
	if len(r.StepActuals) != len(ex.Steps) {
		return ex, fmt.Errorf("%d step actuals for %d plan steps", len(r.StepActuals), len(ex.Steps))
	}
	var sumAct, sumEst float64
	for i, a := range r.StepActuals {
		if err := pos(fmt.Sprintf("step_actuals[%d]", i), a); err != nil {
			return ex, err
		}
		sumAct += a
		sumEst += ex.Steps[i].Sec
	}
	if math.Abs(sumAct-r.ActualSec) > 1e-9*math.Max(1, r.ActualSec) {
		return ex, fmt.Errorf("actual_sec %v != sum of step actuals %v", r.ActualSec, sumAct)
	}
	if math.Abs(sumEst-r.EstimatedSec) > halfCent*float64(len(ex.Steps)+1) {
		return ex, fmt.Errorf("estimated_sec %v != sum of printed step estimates %v", r.EstimatedSec, sumEst)
	}
	if math.Abs(ex.Total-r.EstimatedSec) > halfCent {
		return ex, fmt.Errorf("explain total %v != estimated_sec %v", ex.Total, r.EstimatedSec)
	}
	placed, n := ex.placementSec()
	for _, alt := range ex.Alternatives {
		if placed > alt.Sec+halfCent*float64(n+1) {
			return ex, fmt.Errorf("chosen placement %.2fs costs more than rejected alternative %q (%.2fs)", placed, alt.Desc, alt.Sec)
		}
	}
	for i, st := range ex.Steps {
		if !st.Transfer {
			continue
		}
		want := transferSec(links, st.From, st.To, st.Rows, st.RowBytes)
		if math.Abs(st.Sec-want) > halfCent {
			return ex, fmt.Errorf("transfer %s printed %.2fs, link gives %.6fs", st.Desc, st.Sec, want)
		}
		// Explain prints whole rows; half a row of slack per hop covers it.
		slack := 1e-9*want + 2*0.5*(st.RowBytes/62.5e6+0.3e-6)
		if math.Abs(r.StepActuals[i]-want) > slack {
			return ex, fmt.Errorf("transfer %s executed %.9fs, link gives %.9fs", st.Desc, r.StepActuals[i], want)
		}
	}
	return ex, nil
}

// qError is max(est/actual, actual/est).
func qError(est, act float64) float64 {
	if est > act {
		return est / act
	}
	return act / est
}

// checkRows compares a rows-join response against the closed-form answer.
func checkRows(r *queryResp, q rowsQuery) error {
	want := rowsAnswer(q)
	got := make([][]float64, len(r.Rows))
	copy(got, r.Rows)
	sortRows(got)
	if len(got) != len(want) {
		return fmt.Errorf("%q: %d rows, closed form gives %d", q.SQL, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%q: row %d has %d columns, want %d", q.SQL, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("%q: row %d = %v, closed form gives %v", q.SQL, i, got[i], want[i])
			}
		}
	}
	if len(r.Columns) != 2 {
		return fmt.Errorf("%q: columns %v, want 2", q.SQL, r.Columns)
	}
	return nil
}
