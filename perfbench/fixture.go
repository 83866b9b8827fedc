package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// scale sizes the DBLP corpus: 5,000 inproceedings and 500 books,
// about 1.74 MB of columnar data under hybrid inlining. At scale 1.0
// serve-tuned throughput spread too widely between runs.
const scale = 0.25

// fixture is the seeded input every workload starts from: a DBLP
// document, its statistics, and one §5.1.3 query mix over it.
type fixture struct {
	tree  *schema.Tree
	doc   *xmlgen.Doc
	col   *stats.Collection
	mix   *workload.Workload
	texts []string // the mix as XPath text, as a client sends it
}

// dblpDoc generates the DBLP document for a seed.
func dblpDoc(tree *schema.Tree, seed int64) *xmlgen.Doc {
	opts := xmlgen.DefaultDBLPOptions()
	opts.Inproceedings = int(float64(opts.Inproceedings) * scale)
	opts.Books = int(float64(opts.Books) * scale)
	opts.Seed = seed
	return xmlgen.GenerateDBLP(tree, opts)
}

// mixShapeSeed seeds the query generator's own choices — contexts,
// projections and predicate leaves — so that every -seed offers the
// same shape of work. Mixes drawn with -seed itself differed from seed
// to seed by 2x in serve throughput and by 1.5x in Greedy search time,
// more than any bound the benchmark could hold. -seed still drives the
// data and, through its statistics, each predicate's constant.
const mixShapeSeed = 23

// newFixture generates the document, collects statistics, and draws
// the LP-HS mix: 10 queries, 1–4 projections, selectivity 0.01–0.1.
// tr, when non-nil, records the statistics span.
func newFixture(seed int64, tr *tracer) (*fixture, error) {
	tree := schema.DBLP()
	doc := dblpDoc(tree, seed)
	sp := tr.begin(0, -1, "stats.collect")
	col := xmlgen.CollectStats(tree, doc)
	tr.end(sp)
	mix, err := workload.Generate(tree, col, workload.Params{
		Name: "LP-HS-10", NumQueries: 10, MinProj: 1, MaxProj: 4,
		SelLow: 0.01, SelHigh: 0.1, Seed: mixShapeSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("query mix: %w", err)
	}
	f := &fixture{tree: tree, doc: doc, col: col, mix: mix}
	for _, q := range mix.Queries {
		f.texts = append(f.texts, q.XPath.String())
	}
	return f, nil
}

// hybrid shreds the fixture under the paper's hybrid-inlining mapping
// and builds it with an empty physical design.
func (f *fixture) hybrid(tr *tracer) (*shred.Mapping, *rel.Database, *engine.Built, error) {
	m, err := shred.Compile(f.tree)
	if err != nil {
		return nil, nil, nil, err
	}
	sp := tr.begin(0, -1, "shred.shred")
	db, err := shred.Shred(m, f.doc)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin(0, -1, "engine.build")
	built, err := engine.Build(db, &physical.Config{})
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, db, built, nil
}

// planned is one mix query planned the way the service plans it.
type planned struct {
	text string
	q    *xpath.Query
	plan *optimizer.Plan
}

// planMix translates and plans every mix query under a mapping and
// design, with statistics from the data, as service.RegisterBuilt and
// RegisterStore do.
func planMix(f *fixture, m *shred.Mapping, db *rel.Database, cfg *physical.Config) ([]planned, error) {
	opt := optimizer.New(stats.FromDatabase(db))
	out := make([]planned, len(f.texts))
	for i, text := range f.texts {
		q, err := xpath.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", text, err)
		}
		sql, err := translate.Translate(m, q)
		if err != nil {
			return nil, fmt.Errorf("translate %s: %w", text, err)
		}
		plan, err := opt.PlanQuery(sql, cfg)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", text, err)
		}
		out[i] = planned{text: text, q: q, plan: plan}
	}
	return out, nil
}

// references runs every plan through the row-at-a-time reference
// evaluator, the arbiter of correctness.
func references(b *engine.Built, plans []planned) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(plans))
	for i, p := range plans {
		res, err := engine.ExecuteReference(b, p.plan)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", p.text, err)
		}
		out[i] = res
	}
	return out, nil
}

// sameResult compares a result with the reference bit for bit.
func sameResult(query string, want *engine.Result, cols []string, rows [][]rel.Value) error {
	if len(cols) != len(want.Cols) {
		return wrongf("%s: %d columns, reference has %d", query, len(cols), len(want.Cols))
	}
	for i := range cols {
		if cols[i] != want.Cols[i] {
			return wrongf("%s: column %d is %q, reference has %q", query, i, cols[i], want.Cols[i])
		}
	}
	if len(rows) != len(want.Rows) {
		return wrongf("%s: %d rows, reference has %d", query, len(rows), len(want.Rows))
	}
	for i, row := range rows {
		if len(row) != len(want.Rows[i]) {
			return wrongf("%s: row %d has %d values, reference has %d", query, i, len(row), len(want.Rows[i]))
		}
		for j, v := range row {
			if !v.BitEqual(want.Rows[i][j]) {
				return wrongf("%s: row %d column %d is %v, reference has %v", query, i, j, v, want.Rows[i][j])
			}
		}
	}
	return nil
}
