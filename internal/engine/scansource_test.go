package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// planQuery plans a hand-built query against the oracle database under
// an empty config. Plans are Built-independent, so one plan executes
// against both the assembled and the chunk-sourced Built.
func planQuery(t *testing.T, db *rel.Database, q *sqlast.Query) *optimizer.Plan {
	t.Helper()
	plan, err := optimizer.New(stats.FromDatabase(db)).PlanQuery(q, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// sliceSource is an in-memory ScanSource: chunk-granular snapshots of
// a resident table, each validated once by rel.TableFromSnapshot and
// then served read-only on every visit — the same shape the storage
// pager serves, without the disk. It counts outstanding acquisitions
// so tests can assert the executor's release discipline: at most one
// held chunk per worker, zero when idle.
type sliceSource struct {
	cols   []rel.Column
	rows   int
	spans  [][2]int
	chunks []*rel.Table

	held    atomic.Int64
	maxHeld atomic.Int64
}

func newSliceSource(t *testing.T, tbl *rel.Table, chunkRows int) *sliceSource {
	t.Helper()
	if chunkRows%64 != 0 {
		t.Fatalf("chunkRows %d must be a multiple of 64", chunkRows)
	}
	snap := tbl.Snapshot()
	s := &sliceSource{cols: tbl.Columns, rows: tbl.RowCount()}
	for lo := 0; lo < s.rows; lo += chunkRows {
		hi := min(lo+chunkRows, s.rows)
		cs, err := snap.SliceSnapshot(lo, hi)
		if err != nil {
			t.Fatalf("SliceSnapshot(%d,%d): %v", lo, hi, err)
		}
		chunk, err := rel.TableFromSnapshot(cs)
		if err != nil {
			t.Fatalf("TableFromSnapshot(%d,%d): %v", lo, hi, err)
		}
		s.spans = append(s.spans, [2]int{lo, hi})
		s.chunks = append(s.chunks, chunk)
	}
	return s
}

func (s *sliceSource) Columns() []rel.Column      { return s.cols }
func (s *sliceSource) RowCount() int              { return s.rows }
func (s *sliceSource) NumChunks() int             { return len(s.chunks) }
func (s *sliceSource) ChunkSpan(k int) (int, int) { return s.spans[k][0], s.spans[k][1] }

func (s *sliceSource) Chunk(k int) (*rel.Table, func(), error) {
	h := s.held.Add(1)
	for {
		m := s.maxHeld.Load()
		if h <= m || s.maxHeld.CompareAndSwap(m, h) {
			break
		}
	}
	var released atomic.Bool
	return s.chunks[k], func() {
		if released.CompareAndSwap(false, true) {
			s.held.Add(-1)
		}
	}, nil
}

// chunkDB builds a parent/child database big enough to span many
// chunks, with the value shapes that stress kernels: repeated strings,
// NULLs, non-finite floats, and wrong-typed exception rows (which force
// the generic per-cell kernel fallback on the chunks that contain them
// while other chunks keep the typed fast path).
func chunkDB(nrows int) *rel.Database {
	db := rel.NewDatabase()
	big := rel.NewTable("big", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true},
		{Name: "val", Typ: rel.TFloat, Nullable: true},
		{Name: "n", Typ: rel.TInt, Nullable: true},
	})
	for i := 0; i < nrows; i++ {
		tag := rel.Str(fmt.Sprintf("tag-%02d", i%7))
		switch {
		case i%13 == 0:
			tag = rel.NullOf(rel.TString)
		case i%97 == 0:
			tag = rel.Int(int64(i)) // exception: int in a string column
		}
		val := rel.Float(float64(i) / 3)
		switch {
		case i%31 == 0:
			val = rel.Float(math.NaN())
		case i%47 == 0:
			val = rel.Float(math.Copysign(0, -1))
		case i%11 == 0:
			val = rel.NullOf(rel.TFloat)
		}
		n := rel.Int(int64(i % 100))
		if i%17 == 0 {
			n = rel.NullOf(rel.TInt)
		}
		big.AppendRow([]rel.Value{rel.Int(int64(i)), rel.NullOf(rel.TInt), tag, val, n})
	}
	kid := rel.NewTable("kid", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt},
		{Name: "word", Typ: rel.TString},
	})
	kid.Parent = "big"
	for i := 0; i < nrows/2; i++ {
		kid.AppendRow([]rel.Value{
			rel.Int(int64(nrows + i)), rel.Int(int64((i * 5) % nrows)),
			rel.Str(fmt.Sprintf("w%d", i%19)),
		})
	}
	db.Add(big)
	db.Add(kid)
	return db
}

// chunkQueries exercise the srcChunks driver: a pure filtered scan
// (typed int + dictionary string kernels), a scan over the
// exception-bearing float column (generic fallback kernel), and a
// hash-join with a driver-stage filter.
func chunkQueries() []*sqlast.Query {
	return []*sqlast.Query{
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "big", Column: "tag"}, As: "tag"},
			},
			From: []string{"big"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredCompare, Op: sqlast.OpEq,
					Col: sqlast.ColRef{Table: "big", Column: "tag"}, Value: rel.Str("tag-03")},
				{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
					Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(40)},
			},
		}}, OrderBy: "ID"},
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "big", Column: "val"}, As: "val"},
			},
			From: []string{"big"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
					Col: sqlast.ColRef{Table: "big", Column: "val"}, Value: rel.Float(25)},
			},
		}}, OrderBy: "ID"},
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "kid", Column: "word"}, As: "word"},
			},
			From: []string{"big", "kid"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredJoin,
					Left:  sqlast.ColRef{Table: "kid", Column: "PID"},
					Right: sqlast.ColRef{Table: "big", Column: "ID"}},
				{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
					Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(50)},
			},
		}}, OrderBy: "ID"},
	}
}

// TestScanSourceMatchesAssembled is the in-memory equivalence oracle
// for the chunk-scan driver: the same plans executed over a Built with
// registered chunk sources must return bit-identical results — rows,
// order, values, stats — to the assembled-table Built and the
// row-at-a-time reference, serially and at several morsel worker
// counts, with every chunk released when execution finishes.
func TestScanSourceMatchesAssembled(t *testing.T) {
	const nrows = 1600
	db := chunkDB(nrows)

	oracle, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := Build(chunkDB(nrows), nil)
	if err != nil {
		t.Fatal(err)
	}
	bigSrc := newSliceSource(t, db.Table("big"), 128)
	kidSrc := newSliceSource(t, db.Table("kid"), 128)
	paged.SetScanSource("big", bigSrc)
	paged.SetScanSource("kid", kidSrc)

	defer func(old int) { morselRows = old }(morselRows)
	morselRows = 256 // two 128-row chunks per morsel

	for qi, q := range chunkQueries() {
		plan := planQuery(t, db, q)
		want, err := ExecuteReference(oracle, plan)
		if err != nil {
			t.Fatalf("query %d: reference: %v", qi, err)
		}
		asm, err := Execute(oracle, plan)
		if err != nil {
			t.Fatalf("query %d: assembled: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("query %d assembled-vs-reference", qi), asm, want)

		pp, err := paged.Prepared(plan)
		if err != nil {
			t.Fatalf("query %d: prepare paged: %v", qi, err)
		}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			pp.Workers = workers
			for run := 0; run < 2; run++ {
				got, err := pp.Execute()
				if err != nil {
					t.Fatalf("query %d workers %d: %v", qi, workers, err)
				}
				requireIdentical(t, fmt.Sprintf("query %d workers %d", qi, workers), got, want)
			}
			if h := bigSrc.held.Load() + kidSrc.held.Load(); h != 0 {
				t.Fatalf("query %d workers %d: %d chunks still held after execution", qi, workers, h)
			}
		}
		pp.Workers = 0
	}
	if m := bigSrc.maxHeld.Load(); m < 1 {
		t.Fatal("scan source was never used")
	}
}

// TestScanSourceOverVirtualShells runs the chunk-scan driver over a
// database of unhydrated shells: the driver scan must execute without
// ever hydrating its table, while the join build side hydrates on
// demand through its loader.
func TestScanSourceOverVirtualShells(t *testing.T) {
	const nrows = 960
	db := chunkDB(nrows)
	bigSrc := newSliceSource(t, db.Table("big"), 128)
	kidSrc := newSliceSource(t, db.Table("kid"), 128)

	shellDB := rel.NewDatabase()
	var shells []*rel.Table
	for _, src := range db.Tables() {
		src := src
		sh := rel.NewVirtualTable(src.Name, src.Parent, src.Columns,
			src.RowCount(), src.Generation(), src.Bytes(),
			func() (*rel.Table, error) { return src, nil })
		shellDB.Add(sh)
		shells = append(shells, sh)
	}
	paged, err := Build(shellDB, nil)
	if err != nil {
		t.Fatal(err)
	}
	paged.SetScanSource("big", bigSrc)
	paged.SetScanSource("kid", kidSrc)
	oracle, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}

	for qi, q := range chunkQueries() {
		plan := planQuery(t, db, q)
		want, err := Execute(oracle, plan)
		if err != nil {
			t.Fatalf("query %d: oracle: %v", qi, err)
		}
		got, err := Execute(paged, plan)
		if err != nil {
			t.Fatalf("query %d: paged: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("query %d shells", qi), got, want)
	}
	// The pure-scan queries never touch "big" beyond its source, and the
	// join plan only hydrates its build side — at least one shell must
	// still be virtual, proving scans did not fall back to assembly.
	virtual := 0
	for _, sh := range shells {
		if !sh.Resident() {
			virtual++
		}
	}
	if virtual == 0 {
		t.Fatal("every shell hydrated; chunk scans fell back to full assembly")
	}
}

// TestScanSourceIgnoredForSeeksAndViews pins the scope of the source
// registry: index seeks hydrate and use the assembled table even when a
// source is registered (results must stay identical to the assembled
// Built with the same index).
func TestScanSourceIgnoredForSeeks(t *testing.T) {
	const nrows = 640
	db := chunkDB(nrows)
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "ix_big_n", Table: "big", Key: []string{"n"},
		Include: []string{"ID", "tag"}})

	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"}},
		From:  []string{"big"},
		Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
			Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(95)}},
	}}, OrderBy: "ID"}

	oracle, plan := planFor(t, db, q, cfg)
	paged, err := Build(chunkDB(nrows), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := newSliceSource(t, db.Table("big"), 128)
	paged.SetScanSource("big", src)

	want, err := Execute(oracle, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(paged, plan)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "seek with registered source", got, want)
	if want.Stats.RowsSought == 0 {
		t.Fatal("plan did not seek; fixture lost its point")
	}
	if src.maxHeld.Load() != 0 {
		t.Fatal("seek access pulled chunks from the scan source")
	}
}
