package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span. Times are ns since the tracer started;
// Parent is 0 for a request's root span, and every span of a request shares
// its Req.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
	SelfNS int64  `json:"self_ns"`
}

// spanAgg accumulates every span of one name: calls, items (statements,
// estimates or input rows the spans covered) and total time in ns.
type spanAgg struct {
	calls, items, total int64
}

func (a spanAgg) perCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.total) / float64(a.calls)
}

func (a spanAgg) perItem() float64 {
	if a.items == 0 {
		return 0
	}
	return float64(a.total) / float64(a.items)
}

type spanStats map[string]*spanAgg

func (s spanStats) get(name string) spanAgg {
	if a := s[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// openSpan is a span the replay goroutine has begun and not yet ended,
// with the intervals of its finished children.
type openSpan struct {
	rec  spanRec
	kids [][2]int64
}

// tracer records the composed pass's spans. Spans begin and end on the
// replay goroutine in stack order, so that path takes no lock. Leaf spans
// (estimator calls) may come from the optimizer's costing workers while
// the replay goroutine waits inside the optimizer; they serialize on mu
// and attach to the innermost open span, and the workers' exit orders them
// before the replay goroutine continues. Every span is folded into per-name
// aggregates; the first keep spans are also kept in memory and written out
// at the end. A tracer that is off records nothing and reads no clock.
type tracer struct {
	on     bool
	base   time.Time
	keep   int
	req    int64
	mu     sync.Mutex
	stack  []openSpan
	depth  int
	nextID int64
	stats  spanStats
	kept   []spanRec
	// children sums the current request's spans of the layers the engine
	// calls into (parse, plan, remote execution, row engine), for the
	// engine's self time.
	children int64
}

// engineChildren names the spans subtracted from the engine's time.
var engineChildren = map[string]bool{
	"sqlparse.parse": true, "optimizer.plan_hit": true, "optimizer.plan_miss": true,
	"remote.execute": true, "rowengine.execute": true,
}

func newTracer(on bool, keep int) *tracer {
	return &tracer{on: on, base: time.Now(), keep: keep, stats: spanStats{}, stack: make([]openSpan, 16)}
}

func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.base))
}

// begin opens a span under the innermost open one and returns its depth
// (-1 when the tracer is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.nextID++
	o := &t.stack[t.depth]
	o.rec = spanRec{ID: t.nextID, Req: t.req, Name: name}
	o.kids = o.kids[:0]
	if t.depth > 0 {
		o.rec.Parent = t.stack[t.depth-1].rec.ID
	}
	t.depth++
	o.rec.Start = t.now()
	return t.depth - 1
}

// rename relabels an open span (a plan span is a hit or a miss, known only
// after the call).
func (t *tracer) rename(d int, name string) {
	if d >= 0 {
		t.stack[d].rec.Name = name
	}
}

// end closes the innermost open span, which must be the one at depth d.
func (t *tracer) end(d int, items int) {
	if d < 0 {
		return
	}
	end := t.now()
	o := &t.stack[d]
	t.depth = d
	o.rec.End, o.rec.Items = end, items
	o.rec.SelfNS = (end - o.rec.Start) - unionNS(o.kids)
	t.record(o.rec)
	if d > 0 {
		p := &t.stack[d-1]
		p.kids = append(p.kids, [2]int64{o.rec.Start, end})
	}
}

// leaf records a finished span with no children under the innermost open
// span. Safe from the optimizer's costing workers.
func (t *tracer) leaf(name string, start, end int64, items int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	rec := spanRec{ID: t.nextID, Req: t.req, Name: name, Start: start, End: end, Items: items, SelfNS: end - start}
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		rec.Parent = p.rec.ID
		p.kids = append(p.kids, [2]int64{start, end})
	}
	t.record(rec)
}

func (t *tracer) record(rec spanRec) {
	a := t.stats[rec.Name]
	if a == nil {
		a = &spanAgg{}
		t.stats[rec.Name] = a
	}
	a.calls++
	a.items += int64(rec.Items)
	a.total += rec.End - rec.Start
	if engineChildren[rec.Name] {
		t.children += rec.End - rec.Start
	}
	if len(t.kept) < t.keep {
		t.kept = append(t.kept, rec)
	}
}

// unionNS is the length of the union of intervals: children that ran
// concurrently (parallel candidate costing) count once.
func unionNS(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// write stores the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.kept {
		if err := enc.Encode(r); err != nil {
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
