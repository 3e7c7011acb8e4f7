package main

import (
	"testing"

	"intellisphere/internal/demo"
	"intellisphere/internal/optimizer"
	"intellisphere/internal/sqlparse"
)

// The benchmarks below measure the in-process reference figures the README
// quotes next to the end-to-end ones:
//
//	cd perfbench && go test -run '^$' -bench . -cpu 1,2 -benchtime 20000x

// BenchmarkColdPlan parses and plans cold-batch statements that never
// repeat (plan-cache misses) through Engine.Explain; Workers sets the
// candidate-costing fan-out as cmd/serve's -workers does (0 = GOMAXPROCS).
func BenchmarkColdPlan(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=default", 0}, {"workers=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			fed, err := demo.BuildFederation(demo.Config{Seed: 1, LogicalRemote: true, Workers: bc.workers})
			if err != nil {
				b.Fatal(err)
			}
			gen := newColdGen(1)
			sqls := make([]string, b.N)
			for i := range sqls {
				sqls[i] = gen.next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, s := range sqls {
				if _, err := fed.Engine.Explain(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplainFresh renders the Explain text of freshly built plans
// (rendering is memoized per plan, so each iteration plans anew outside
// the timer).
func BenchmarkExplainFresh(b *testing.B) {
	gen := newColdGen(2)
	c, err := newComposed(newTracer(false, 0), "", false)
	if err != nil {
		b.Fatal(err)
	}
	// The composed pipeline's optimizer without its plan cache.
	opt := &optimizer.Optimizer{Catalog: c.opt.Catalog, Grid: c.opt.Grid, Estimators: c.opt.Estimators}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stmt, err := sqlparse.Parse(gen.next())
		if err != nil {
			b.Fatal(err)
		}
		p, err := opt.Plan(stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_ = p.Explain()
	}
}
