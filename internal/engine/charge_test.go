package engine

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/engine/chargetest"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// rowChunkSource is a ScanSource of any chunk size: each chunk is a
// fresh table built row by row (AppendRow keeps exception cells), so
// chunk sizes need not align to bitmap words the way snapshot slices
// must. tail rows, when present, are served as one final chunk — the
// shape of the storage layer's redo overlay.
type rowChunkSource struct {
	cols   []rel.Column
	rows   int
	spans  [][2]int
	chunks []*rel.Table
}

func newRowChunkSource(tbl *rel.Table, chunkRows, tail int) *rowChunkSource {
	s := &rowChunkSource{cols: tbl.Columns, rows: tbl.RowCount()}
	all := tbl.Rows()
	add := func(lo, hi int) {
		c := rel.NewTable(tbl.Name, tbl.Columns)
		for _, r := range all[lo:hi] {
			c.AppendRow(r)
		}
		s.spans = append(s.spans, [2]int{lo, hi})
		s.chunks = append(s.chunks, c)
	}
	base := s.rows - tail
	for lo := 0; lo < base; lo += chunkRows {
		add(lo, min(lo+chunkRows, base))
	}
	if tail > 0 {
		add(base, s.rows)
	}
	return s
}

func (s *rowChunkSource) Columns() []rel.Column      { return s.cols }
func (s *rowChunkSource) RowCount() int              { return s.rows }
func (s *rowChunkSource) NumChunks() int             { return len(s.chunks) }
func (s *rowChunkSource) ChunkSpan(k int) (int, int) { return s.spans[k][0], s.spans[k][1] }
func (s *rowChunkSource) Chunk(k int) (*rel.Table, func(), error) {
	return s.chunks[k], func() {}, nil
}

// TestChunkChargeMatchesAssembled is the BytesCharged parity property
// at any chunk size: scanned chunk by chunk — 1-row, 7-row, and larger
// chunks, with and without an overlay tail chunk — at several worker
// counts, the fixture charges exactly the bytes and rows of the
// assembled path and the reference executor, and the reference's
// charge equals the definition (driver table once, join build side
// once).
func TestChunkChargeMatchesAssembled(t *testing.T) {
	const nrows, tail = 600, 29
	defer func(old int) { morselRows = old }(morselRows)
	morselRows = 64
	for _, chunkRows := range []int{1, 7, 256, 4096} {
		for _, overlay := range []bool{false, true} {
			t.Run(fmt.Sprintf("chunk%d_overlay%v", chunkRows, overlay), func(t *testing.T) {
				n := nrows
				if overlay {
					n += tail
				}
				db := chargetest.DB(n)
				oracle, err := Build(db, nil)
				if err != nil {
					t.Fatal(err)
				}
				paged, err := Build(chargetest.DB(n), nil)
				if err != nil {
					t.Fatal(err)
				}
				tailRows := 0
				if overlay {
					tailRows = tail
				}
				paged.SetScanSource("doc", newRowChunkSource(db.Table("doc"), chunkRows, tailRows))
				for qi, q := range chargetest.Queries() {
					plan := planQuery(t, db, q.SQL)
					want, err := ExecuteReference(oracle, plan)
					if err != nil {
						t.Fatal(err)
					}
					if wantBytes := q.Want(db); want.Stats.BytesCharged != wantBytes {
						t.Fatalf("query %d: reference charged %d bytes, definition says %d", qi, want.Stats.BytesCharged, wantBytes)
					}
					asm, err := Execute(oracle, plan)
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("query %d assembled", qi), asm, want)
					pp, err := paged.Prepared(plan)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 7} {
						got, err := pp.ExecuteContextWorkers(t.Context(), workers)
						if err != nil {
							t.Fatalf("query %d workers %d: %v", qi, workers, err)
						}
						requireIdentical(t, fmt.Sprintf("query %d chunks workers %d", qi, workers), got, want)
					}
				}
			})
		}
	}
}

// TestChunkScanAllocsFollowSelection pins late materialization: a
// chunk scan reads only the rows its driver kernels select, so the
// bytes one execution allocates grow with the selected rows, not with
// chunk rows × table width. Every chunk visit adopts a fresh view (as a
// pager does after eviction), so a scan that built a row view of each
// whole chunk would allocate at least rows × width values per
// execution.
func TestChunkScanAllocsFollowSelection(t *testing.T) {
	const nrows, width = 16384, 16
	cols := []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "sel", Typ: rel.TInt}}
	for c := len(cols); c < width; c++ {
		cols = append(cols, rel.Column{Name: fmt.Sprintf("c%d", c), Typ: rel.TString})
	}
	tbl := rel.NewTable("wide", cols)
	row := make([]rel.Value, width)
	for i := 0; i < nrows; i++ {
		row[0], row[1] = rel.Int(int64(i)), rel.Int(int64(i%100))
		for c := 2; c < width; c++ {
			row[c] = rel.Str(fmt.Sprintf("v%d", (i+c)%4))
		}
		tbl.AppendRow(row)
	}
	db := rel.NewDatabase()
	db.Add(tbl)
	b, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.SetScanSource("wide", newSliceSource(t, tbl, 1024))

	// allocPerExec returns the bytes one serial execution allocates for
	// a query selecting rows with sel < cut (cut% of the table).
	allocPerExec := func(cut int64) (float64, int) {
		q := &sqlast.Query{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "wide", Column: "ID"}, As: "ID"}},
			From:  []string{"wide"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
				Col: sqlast.ColRef{Table: "wide", Column: "sel"}, Value: rel.Int(cut)}},
		}}}
		pp, err := b.Prepared(planQuery(t, db, q))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pp.Execute() // warm the pooled operator state
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := pp.Execute(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, len(res.Rows)
	}
	one, sel1 := allocPerExec(1)
	ten, sel10 := allocPerExec(10)
	if sel1 != nrows/100+1 && sel1 != nrows/100 {
		t.Fatalf("1%% predicate selected %d rows", sel1)
	}
	rowView := float64(nrows * width * int(unsafe.Sizeof(rel.Value{})))
	t.Logf("bytes/exec: %.0f at %d selected rows, %.0f at %d; whole-table row view is %.0f", one, sel1, ten, sel10, rowView)
	if one > rowView/8 {
		t.Errorf("1%%-selective chunk scan allocated %.0f B/exec, over 1/8 of the %.0f B a row view of every chunk costs", one, rowView)
	}
	// Selecting 10x the rows must cost more than the 1% scan, by an
	// amount of the order of the extra rows, not of the whole table.
	if ten <= one {
		t.Errorf("10%% scan allocated %.0f B/exec, not more than the 1%% scan's %.0f", ten, one)
	}
	if ten-one > rowView/4 {
		t.Errorf("10x the selected rows cost %.0f extra B/exec, too much for %d extra rows", ten-one, sel10-sel1)
	}
}
