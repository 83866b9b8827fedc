package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// mixReps is how many times the mix runs under each recommended design.
const mixReps = 20

// adviseOut is what the search phase measured.
type adviseOut struct {
	searches []float64     // ms per Greedy search
	cpu      []float64     // process CPU ms per Greedy search
	mixes    []float64     // ms per execution of the whole mix
	mixCPU   time.Duration // process CPU of all the mix executions
	space    []float64     // (data + structures) / data per design
	last     *core.Result
}

// searchLoop runs fresh-advisor Greedy searches (so the evaluation
// memo starts cold) until d has passed and at least three ran. After
// each search the mix is built and executed under the recommended
// design, and each query's batch-executor result is checked bit for
// bit against the reference evaluator on the same Built and plan.
func searchLoop(b *bench, fix *fixture, d time.Duration, o *obsCfg) (*adviseOut, error) {
	out := &adviseOut{}
	tr := o.tracer()
	start := time.Now()
	for len(out.searches) < 3 || time.Since(start) < d {
		opts := core.Options{Parallelism: sessions}
		if o != nil {
			opts.Obs, opts.Registry = o.oc.tr, o.reg
		}
		adv := core.New(fix.tree, fix.col, fix.mix, opts)
		sp := tr.begin(tr.request(), -1, "core.greedy")
		t0, c0 := time.Now(), cpuTime()
		res, err := adv.Greedy()
		out.searches = append(out.searches, ms(time.Since(t0)))
		out.cpu = append(out.cpu, ms(cpuTime()-c0))
		tr.end(sp)
		b.attempted++
		if err != nil {
			b.failed++
			continue
		}
		out.last = res
		db, built, err := adv.BuildFor(res, fix.doc)
		if err != nil {
			return nil, err
		}
		if o != nil {
			built.AttachObs(nil, o.reg)
		}
		out.space = append(out.space, float64(db.Bytes()+built.StructBytes)/float64(db.Bytes()))
		plans, err := planMix(fix, res.Mapping, db, res.Config)
		if err != nil {
			return nil, err
		}
		want, err := references(built, plans)
		if err != nil {
			return nil, err
		}
		pps := make([]*engine.PreparedPlan, len(plans))
		for i, p := range plans {
			if pps[i], err = built.Prepared(p.plan); err != nil {
				return nil, err
			}
		}
		ctx := context.Background()
		// The search's garbage is collected before the mix runs, so
		// collecting it does not land in the mix's CPU time.
		runtime.GC()
		mc0 := cpuTime()
		for r := 0; r < mixReps; r++ {
			req := tr.request()
			t0 := time.Now()
			for i, pp := range pps {
				sp := tr.begin(req, -1, "engine.execute")
				res, err := pp.ExecuteContext(ctx)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				if r == 0 {
					if err := sameResult(plans[i].text, want[i], res.Cols, res.Rows); err != nil {
						return nil, err
					}
				}
			}
			out.mixes = append(out.mixes, ms(time.Since(t0)))
		}
		out.mixCPU += cpuTime() - mc0
	}
	return out, nil
}

// timedAdvise is the untraced advise run.
func timedAdvise(b *bench) error {
	var fix *fixture
	err := timeSetup(b, func(int) (func(), error) {
		var err error
		fix, err = newFixture(b.seed, nil)
		return nil, err
	})
	if err != nil {
		return err
	}
	out, err := searchLoop(b, fix, b.seconds, nil)
	if err != nil {
		return err
	}
	if out.last == nil {
		return fmt.Errorf("every Greedy search failed")
	}
	m := b.metrics
	m["cpu_ms_per_op"] = median(out.cpu)
	m["read_cpu_ms"] = ms(out.mixCPU) / float64(len(out.mixes))
	m["space_amp"] = median(out.space)
	fmt.Printf("advise: %d Greedy searches, %d mix executions; design: %s\n",
		len(out.searches), len(out.mixes), out.last.Metrics.Summary())
	wallf("advise_s", median(out.searches)/1e3, "s")
	wallf("design_exec_ms", median(out.mixes), "ms")
	return nil
}

// tracedAdvise runs untraced searches, then traced ones with the
// core's obs spans and registry on, and reports the search layers.
func tracedAdvise(b *bench, own bool) error {
	d := time.Second
	if own {
		d = b.seconds / 2
	}
	fix, err := newFixture(b.seed, nil)
	if err != nil {
		return err
	}
	plain, err := searchLoop(b, fix, d, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	o := &obsCfg{tr: tr, oc: newObsClock(tr), reg: obs.NewRegistry()}
	if _, err := newFixture(b.seed, tr); err != nil { // traced set-up spans
		return err
	}
	snap0 := o.reg.Snapshot()
	traced, err := searchLoop(b, fix, d, o)
	if err != nil {
		return err
	}
	if traced.last == nil {
		return fmt.Errorf("every Greedy search failed")
	}
	snap1 := o.reg.Snapshot()
	m := b.metrics
	m["trace_overhead_frac"] = 1 - median(plain.searches)/median(traced.searches)
	m["stats.collect_ms"] = median(tr.durations("stats.collect", 0))
	greedyLayers(b, traced.last, o.oc)
	execLayers(b, tr.durations("engine.execute", 0), snap0, snap1)
	// Residual: the share of search wall time no core, transform or
	// physdesign span covers.
	var wall, cov float64
	var iv [][2]float64
	walkObs(o.oc.roots(), func(s *obsSpan) {
		switch s.Name {
		case "candidate-selection", "candidate-merging", "advisor.evaluate", "advisor.derive-cost",
			"advisor.cost-fixed", "physdesign.tune":
			iv = append(iv, [2]float64{s.StartUS + o.oc.offset, s.StartUS + o.oc.offset + s.DurUS})
		}
	})
	for _, s := range tr.named("core.greedy", 0) {
		wall += s.End - s.Start
		var in [][2]float64
		for _, x := range iv {
			if x[0] >= s.Start-5 && x[1] <= s.End+5 {
				in = append(in, x)
			}
		}
		cov += covered(in, s.Start, s.End)
	}
	m["unexplained_frac"] = 1 - cov/wall
	fmt.Printf("advise traced: %d searches, median %.1f ms traced vs %.1f ms untraced\n",
		len(traced.searches), median(traced.searches), median(plain.searches))
	return writeTrace(b, "advise", tr)
}

// greedyLayers fills the core, transform and physdesign metrics from a
// search's Result.Metrics and the obs spans of the most recent search.
func greedyLayers(b *bench, res *core.Result, oc *obsClock) {
	m := b.metrics
	met := res.Metrics
	m["core.transformations"] = float64(met.Transformations)
	m["core.mappings_costed"] = float64(met.MappingsCosted)
	m["core.costs_derived"] = float64(met.CostsDerived)
	m["core.eval_cache_hit_ratio"] = ratio(float64(met.EvalCacheHits), float64(met.EvalCacheHits+met.EvalCacheMisses))
	m["optimizer.whatif_calls"] = float64(met.OptimizerCalls)
	m["physdesign.tune_calls"] = float64(met.PhysDesignCalls)
	// The last "search" root is the most recent Greedy run. Candidate
	// evaluations are roots of their own (advisor.evaluate,
	// advisor.derive-cost), so the search's spans are those inside its
	// time window.
	roots := oc.roots()
	var last *obsSpan
	for _, r := range roots {
		if r.Name == "search" {
			last = r
		}
	}
	if last == nil {
		return
	}
	var sel, merge, tune float64
	walkObs(roots, func(s *obsSpan) {
		if s.StartUS < last.StartUS || s.StartUS+s.DurUS > last.StartUS+last.DurUS {
			return
		}
		switch s.Name {
		case "candidate-selection":
			sel += s.DurUS
		case "candidate-merging":
			merge += s.DurUS
		case "physdesign.tune":
			self := s.DurUS
			for _, k := range s.Children {
				self -= k.DurUS
			}
			tune += self
		}
	})
	m["core.candidate_selection_ms"] = sel / 1e3
	m["core.candidate_merging_ms"] = merge / 1e3
	m["physdesign.tune_ms"] = tune / 1e3
}
