package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// ExecStats counts the work an execution performed; tests use it to
// assert that physical designs actually reduce data access (e.g.
// partition pruning reads fewer rows).
type ExecStats struct {
	// RowsScanned counts rows produced by heap/partition scans.
	RowsScanned int64
	// RowsSought counts rows fetched through index seeks and probes.
	RowsSought int64
	// Branches counts executed union branches.
	Branches int64
	// BytesCharged is the simulated sequential-read volume of the heap
	// scans: every row a table scan or hash-join build side reads is
	// charged once, at cellCharge per cell (8 per numeric or NULL cell,
	// the byte length of a non-NULL string). Index seeks and
	// partition-group scans pay only for what they read and charge
	// nothing. The executor does no work for the charge; core turns it
	// into modelled I/O time (see core.SimScanBandwidth).
	BytesCharged int64
}

// add accumulates another branch's counters.
func (s *ExecStats) add(o ExecStats) {
	s.RowsScanned += o.RowsScanned
	s.RowsSought += o.RowsSought
	s.Branches += o.Branches
	s.BytesCharged += o.BytesCharged
}

// Result is the output of executing a sorted outer-union query.
type Result struct {
	// Cols are the output column names.
	Cols []string
	// Rows are the output tuples, ordered by the ORDER BY column.
	Rows [][]rel.Value
	// Stats counts the work performed.
	Stats ExecStats
}

// Execute runs an optimizer plan over the built database through the
// pipelined batch executor. The compiled form of the plan and its
// probe structures (join hash tables, EXISTS sets, partition zips) are
// cached on the Built, so repeated executions of the same plan — and
// other plans touching the same tables — reuse them.
func Execute(b *Built, plan *optimizer.Plan) (*Result, error) {
	return ExecuteContext(context.Background(), b, plan)
}

// ExecuteContext is Execute with cancellation: ctx aborts both the
// wait for plan compilation and the execution itself (see
// PreparedPlan.ExecuteContext). A cancelled call never poisons the
// Built's structure caches — in-flight builds always complete for the
// next caller.
func ExecuteContext(ctx context.Context, b *Built, plan *optimizer.Plan) (*Result, error) {
	pp, err := b.PreparedContext(ctx, plan)
	if err != nil {
		return nil, err
	}
	return pp.ExecuteContext(ctx)
}

// scope tracks the combined tuple layout during branch execution:
// table name -> column name -> offset in the combined tuple.
type scope struct {
	offsets map[string]map[string]int
	width   int
}

func newScope() *scope { return &scope{offsets: make(map[string]map[string]int)} }

func (sc *scope) add(table string, cols []string) {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		m[c] = sc.width + i
	}
	sc.offsets[table] = m
	sc.width += len(cols)
}

func (sc *scope) pos(c sqlast.ColRef) (int, error) {
	m, ok := sc.offsets[c.Table]
	if !ok {
		return 0, fmt.Errorf("engine: table %s not in scope", c.Table)
	}
	i, ok := m[c.Column]
	if !ok {
		return 0, fmt.Errorf("engine: column %s not in scope", c)
	}
	return i, nil
}

func (sc *scope) has(table string) bool { _, ok := sc.offsets[table]; return ok }

// cellCharge is the scan charge of one value: 8 units for a numeric or
// NULL cell, one per byte for a non-NULL string. It is the unit of
// ExecStats.BytesCharged.
func cellCharge(v rel.Value) int64 {
	if v.Typ == rel.TString && !v.Null {
		return int64(len(v.S))
	}
	return 8
}

// chargeRows is the scan charge of materialized rows (the reference
// executor's heap scans).
func chargeRows(rows [][]rel.Value) int64 {
	var n int64
	for _, row := range rows {
		for _, v := range row {
			n += cellCharge(v)
		}
	}
	return n
}

// chargeTable is chargeRows over rows [lo, hi) of columnar storage,
// read straight from the column vectors without materializing a row:
// a clean numeric column charges 8 per cell without a loop, a clean
// string column reads one dictionary length per cell, and a column
// holding exception values falls back to per-cell materialization, so
// the charge equals chargeRows over the same rows exactly.
func chargeTable(t *rel.Table, lo, hi int) int64 {
	if lo >= hi {
		return 0
	}
	var n int64
	for ci := range t.Columns {
		if codes, dict, nulls, ok := t.StrCol(ci); ok {
			strs := dict.Strs()
			anyNull := nulls.Any()
			for r := lo; r < hi; r++ {
				if anyNull && nulls.Get(r) {
					n += 8
					continue
				}
				n += int64(len(strs[codes[r]]))
			}
			continue
		}
		_, _, intOK := t.IntCol(ci)
		_, _, floatOK := t.FloatCol(ci)
		if intOK || floatOK {
			n += 8 * int64(hi-lo)
			continue
		}
		for r := lo; r < hi; r++ {
			n += cellCharge(t.ValueAt(r, ci))
		}
	}
	return n
}

func predInScope(p *sqlast.Pred, sc *scope) bool {
	switch p.Kind {
	case sqlast.PredCompare:
		return sc.has(p.Col.Table)
	case sqlast.PredOr:
		return len(p.Cols) > 0 && sc.has(p.Cols[0].Table)
	case sqlast.PredExists, sqlast.PredOrExists:
		if !sc.has(p.OuterCol.Table) {
			return false
		}
		for _, c := range p.Cols {
			if !sc.has(c.Table) {
				return false
			}
		}
		return true
	}
	return false
}

func colPositions(sc *scope, cols []sqlast.ColRef) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		pos, err := sc.pos(c)
		if err != nil {
			return nil, err
		}
		out[i] = pos
	}
	return out, nil
}

func matchCompare(v rel.Value, op sqlast.CmpOp, lit rel.Value) bool {
	if v.Null || lit.Null {
		return false
	}
	return op.Matches(v.Compare(lit))
}

// sortResult applies the final ORDER BY of the sorted outer union.
func sortResult(res *Result, orderBy string) error {
	if orderBy == "" {
		return nil
	}
	oi := -1
	for i, c := range res.Cols {
		if c == orderBy {
			oi = i
			break
		}
	}
	if oi < 0 {
		return fmt.Errorf("engine: ORDER BY column %s missing from output", orderBy)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return res.Rows[i][oi].Compare(res.Rows[j][oi]) < 0
	})
	return nil
}

func opFromCmp(op sqlast.CmpOp) opKind {
	switch op {
	case sqlast.OpEq:
		return opEq
	case sqlast.OpLt:
		return opLt
	case sqlast.OpLe:
		return opLe
	case sqlast.OpGt:
		return opGt
	}
	return opGe
}
