// Package chargetest is the shared test fixture of the scan charge
// (engine.ExecStats.BytesCharged): a parent/child database holding
// every cell shape the charge distinguishes, queries that scan it, and
// the charge each query must report, computed from the definition
// independently of the engine.
package chargetest

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/sqlast"
)

// Row returns row i of the doc table: NULLs of each type, empty
// strings, strings of varying length, and exception cells (an int in
// the string column, a string in the int column), whose charge follows
// the stored value rather than the column type.
func Row(i int) []rel.Value {
	tag := rel.Str(fmt.Sprintf("t%d", i) + strings.Repeat("x", i%17))
	switch {
	case i%9 == 0:
		tag = rel.NullOf(rel.TString)
	case i%7 == 0:
		tag = rel.Str("")
	case i%61 == 0:
		tag = rel.Int(int64(i))
	}
	n := rel.Int(int64(i % 50))
	switch {
	case i%11 == 0:
		n = rel.NullOf(rel.TInt)
	case i%53 == 0:
		n = rel.Str("not-a-number")
	}
	val := rel.Float(float64(i) / 4)
	if i%13 == 0 {
		val = rel.NullOf(rel.TFloat)
	}
	return []rel.Value{rel.Int(int64(i)), rel.NullOf(rel.TInt), tag, n, val}
}

// DB builds doc (nrows Row rows) and its child table kid (nrows/2
// rows, the build side of the join query).
func DB(nrows int) *rel.Database {
	doc := rel.NewTable("doc", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true, LeafID: 3},
		{Name: "n", Typ: rel.TInt, Nullable: true, LeafID: 4},
		{Name: "val", Typ: rel.TFloat, Nullable: true, LeafID: 5},
	})
	for i := 0; i < nrows; i++ {
		doc.AppendRow(Row(i))
	}
	kid := rel.NewTable("kid", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt},
		{Name: "word", Typ: rel.TString, Nullable: true, LeafID: 7},
	})
	kid.Parent = "doc"
	for i := 0; i < nrows/2; i++ {
		word := rel.Str(strings.Repeat("w", i%5))
		if i%6 == 0 {
			word = rel.NullOf(rel.TString)
		}
		kid.AppendRow([]rel.Value{rel.Int(int64(nrows + i)), rel.Int(int64((i * 3) % nrows)), word})
	}
	db := rel.NewDatabase()
	db.Add(doc)
	db.Add(kid)
	return db
}

// Charge is the scan charge of rows by definition: 8 per numeric or
// NULL cell, the byte length of a non-NULL string.
func Charge(rows [][]rel.Value) int64 {
	var n int64
	for _, row := range rows {
		for _, v := range row {
			if v.Typ == rel.TString && !v.Null {
				n += int64(len(v.S))
			} else {
				n += 8
			}
		}
	}
	return n
}

// Query is a fixture query and the tables one execution of it scans in
// full, each exactly once.
type Query struct {
	SQL   *sqlast.Query
	Scans []string
}

// Want is the BytesCharged of one execution of q over db.
func (q Query) Want(db *rel.Database) int64 {
	var n int64
	for _, name := range q.Scans {
		n += Charge(db.Table(name).Rows())
	}
	return n
}

// Queries are a full scan, a filtered scan, and a hash join whose build
// side (kid) is charged once per execution.
func Queries() []Query {
	items := []sqlast.SelectItem{
		{Col: &sqlast.ColRef{Table: "doc", Column: rel.IDColumn}, As: "ID"},
		{Col: &sqlast.ColRef{Table: "doc", Column: "tag"}, As: "tag"},
	}
	return []Query{
		{SQL: &sqlast.Query{Branches: []*sqlast.Select{{Items: items, From: []string{"doc"}}}, OrderBy: "ID"},
			Scans: []string{"doc"}},
		{SQL: &sqlast.Query{Branches: []*sqlast.Select{{Items: items, From: []string{"doc"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
				Col: sqlast.ColRef{Table: "doc", Column: "n"}, Value: rel.Int(5)}},
		}}, OrderBy: "ID"},
			Scans: []string{"doc"}},
		{SQL: &sqlast.Query{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "doc", Column: rel.IDColumn}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "kid", Column: "word"}, As: "word"},
			},
			From: []string{"doc", "kid"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredJoin,
					Left:  sqlast.ColRef{Table: "kid", Column: rel.PIDColumn},
					Right: sqlast.ColRef{Table: "doc", Column: rel.IDColumn}},
				{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
					Col: sqlast.ColRef{Table: "doc", Column: "n"}, Value: rel.Int(10)},
			},
		}}, OrderBy: "ID"},
			Scans: []string{"doc", "kid"}},
	}
}
