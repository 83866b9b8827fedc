package rel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// snapshotTable builds a table exercising every storage shape: all
// three types, NULLs, duplicate strings, non-finite floats, and
// bit-faithfulness exceptions (values appended with a type other than
// the declared column type).
func snapshotTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("snap", []Column{
		{Name: IDColumn, Typ: TInt},
		{Name: PIDColumn, Typ: TInt, Nullable: true},
		{Name: "title", Typ: TString, Nullable: true, LeafID: 7},
		{Name: "score", Typ: TFloat, Nullable: true, LeafID: 9, Occurrence: 1},
	})
	rows := [][]Value{
		{Int(1), NullOf(TInt), Str("alpha"), Float(1.5)},
		{Int(2), Int(1), Str("beta"), Float(math.NaN())},
		{Int(3), Int(1), Str("alpha"), Float(math.Copysign(0, -1))},
		{Int(4), Int(2), NullOf(TString), Float(math.Inf(1))},
		{Int(5), Int(2), Str(""), NullOf(TFloat)},
		// Exceptions: wrong-typed appends that the vectors cannot
		// represent bit-faithfully.
		{Int(6), Int(1), Int(42), Str("4.25")},
		{Int(7), Int(3), Str("gamma"), NullOf(TString)},
	}
	for _, r := range rows {
		tbl.AppendRow(r)
	}
	return tbl
}

func tablesBitEqual(t *testing.T, a, b *Table) {
	t.Helper()
	if a.Name != b.Name || a.Parent != b.Parent {
		t.Fatalf("identity differs: %q/%q vs %q/%q", a.Name, a.Parent, b.Name, b.Parent)
	}
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			t.Fatalf("column %d differs: %+v vs %+v", i, a.Columns[i], b.Columns[i])
		}
	}
	if a.RowCount() != b.RowCount() {
		t.Fatalf("row count %d vs %d", a.RowCount(), b.RowCount())
	}
	if a.Generation() != b.Generation() {
		t.Fatalf("generation %d vs %d", a.Generation(), b.Generation())
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("bytes %d vs %d", a.Bytes(), b.Bytes())
	}
	for r := 0; r < a.RowCount(); r++ {
		for c := range a.Columns {
			av, bv := a.ValueAt(r, c), b.ValueAt(r, c)
			if !av.BitEqual(bv) {
				t.Fatalf("value (%d,%d): %v vs %v", r, c, av, bv)
			}
			if a.IsNullAt(r, c) != b.IsNullAt(r, c) {
				t.Fatalf("nullness (%d,%d) differs", r, c)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tbl := snapshotTable(t)
	tbl.Parent = "root"
	got, err := TableFromSnapshot(tbl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, tbl, got)
	// The restored table must keep working as a live table: typed
	// accessors refuse dirty columns, appends continue the generation.
	if _, _, ok := got.IntCol(0); !ok {
		t.Error("restored clean INT column not servable by IntCol")
	}
	if _, _, _, ok := got.StrCol(2); ok {
		t.Error("restored column with exceptions must not be servable by StrCol")
	}
	gen := got.Generation()
	got.AppendRow([]Value{Int(8), Int(1), Str("delta"), Float(2)})
	if got.Generation() != gen+1 {
		t.Errorf("append after restore: generation %d, want %d", got.Generation(), gen+1)
	}
}

func TestSnapshotRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := []string{"", "a", "bb", "ccc", "It's", "NaN", "1998", "  42 "}
	for trial := 0; trial < 40; trial++ {
		cols := []Column{{Name: IDColumn, Typ: TInt}}
		ncols := 1 + rng.Intn(4)
		for i := 0; i < ncols; i++ {
			cols = append(cols, Column{
				Name: string(rune('a' + i)), Typ: Type(rng.Intn(3)), Nullable: true,
			})
		}
		tbl := NewTable("r", cols)
		nrows := rng.Intn(70)
		row := make([]Value, len(cols))
		for r := 0; r < nrows; r++ {
			for c, col := range cols {
				switch {
				case rng.Intn(8) == 0:
					row[c] = NullOf(col.Typ)
				case rng.Intn(16) == 0:
					// Wrong-typed append: lands in the exception slot.
					row[c] = Value{Typ: Type(rng.Intn(3)), I: int64(rng.Intn(9)), F: rng.Float64(), S: words[rng.Intn(len(words))]}
				default:
					switch col.Typ {
					case TInt:
						row[c] = Int(int64(rng.Intn(100) - 50))
					case TFloat:
						fs := []float64{0, math.Copysign(0, -1), 1.25, math.NaN(), math.Inf(-1), rng.NormFloat64()}
						row[c] = Float(fs[rng.Intn(len(fs))])
					default:
						row[c] = Str(words[rng.Intn(len(words))])
					}
				}
			}
			tbl.AppendRow(row)
		}
		got, err := TableFromSnapshot(tbl.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tablesBitEqual(t, tbl, got)
	}
}

// TestTableFromSnapshotRejects drives the validator through malformed
// snapshots: every corruption must come back as an error, not a panic
// and not a quietly wrong table.
func TestTableFromSnapshotRejects(t *testing.T) {
	fresh := func() *TableSnapshot { return snapshotTable(t).Snapshot() }
	cases := []struct {
		name   string
		mutate func(*TableSnapshot)
	}{
		{"nil snapshot", nil},
		{"empty name", func(s *TableSnapshot) { s.Name = "" }},
		{"negative rows", func(s *TableSnapshot) { s.RowCount = -1 }},
		{"negative generation", func(s *TableSnapshot) { s.Generation = -3 }},
		{"duplicate column", func(s *TableSnapshot) { s.Columns[1].Col.Name = s.Columns[0].Col.Name }},
		{"empty column name", func(s *TableSnapshot) { s.Columns[2].Col.Name = "" }},
		{"bad type", func(s *TableSnapshot) { s.Columns[0].Col.Typ = Type(9) }},
		{"short int vector", func(s *TableSnapshot) { s.Columns[0].Ints = s.Columns[0].Ints[:2] }},
		{"short bitmap", func(s *TableSnapshot) { s.Columns[0].NullWords = nil }},
		{"tail bits set", func(s *TableSnapshot) { s.Columns[0].NullWords[0] |= 1 << 63 }},
		{"cross-typed payload", func(s *TableSnapshot) { s.Columns[0].Floats = make([]float64, s.RowCount) }},
		{"code out of dict", func(s *TableSnapshot) { s.Columns[2].Codes[0] = 99 }},
		{"dict order broken", func(s *TableSnapshot) {
			c := &s.Columns[2]
			c.Codes[0], c.Codes[1] = c.Codes[1], c.Codes[0]
		}},
		{"unused dict entry", func(s *TableSnapshot) { s.Columns[2].Dict = append(s.Columns[2].Dict, "orphan") }},
		{"duplicate dict entry", func(s *TableSnapshot) {
			c := &s.Columns[2]
			c.Dict[1] = c.Dict[0]
		}},
		{"null row with payload", func(s *TableSnapshot) { s.Columns[1].Ints[0] = 5 }},
		{"exception row out of range", func(s *TableSnapshot) { s.Columns[2].Exc[0].Row = 99 }},
		{"exception rows unsorted", func(s *TableSnapshot) {
			c := &s.Columns[2]
			c.Exc = append(c.Exc, ExcEntry{Row: c.Exc[0].Row, Val: c.Exc[0].Val})
		}},
		{"exception null bit disagrees", func(s *TableSnapshot) {
			c := &s.Columns[2]
			v := c.Exc[0].Val
			v.Null = !v.Null
			c.Exc[0].Val = v
		}},
		{"round-tripping exception", func(s *TableSnapshot) {
			// Claim an exception whose value is exactly what the
			// vectors materialize: append would never record it.
			c := &s.Columns[0]
			c.Exc = []ExcEntry{{Row: 0, Val: Int(c.Ints[0])}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s *TableSnapshot
			if tc.mutate != nil {
				s = fresh()
				tc.mutate(s)
			}
			if tbl, err := TableFromSnapshot(s); err == nil {
				t.Fatalf("corrupted snapshot accepted (table %v)", tbl.Name)
			}
		})
	}
}

// cellBytes is the per-cell byte accounting TableFromSnapshot must
// reproduce: the per-row overhead plus every materialized value's
// Width, exactly what AppendRow accumulates.
func cellBytes(t *Table) int64 {
	var b int64
	for r := 0; r < t.RowCount(); r++ {
		b += 8
		for c := range t.Columns {
			b += int64(t.ValueAt(r, c).Width())
		}
	}
	return b
}

// TestTableFromSnapshotBytesMatchCellOracle pins the typed byte
// accounting against the per-cell formula over random tables that mix
// every exception shape — NULLs carrying a payload or another type,
// wrong-typed values, empty strings, and string columns whose
// dictionary stays empty — and checks that a restore adopts each
// string dictionary without building its index.
func TestTableFromSnapshotBytesMatchCellOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	words := []string{"", "x", "yy", "zzzz", "1998"}
	for trial := 0; trial < 200; trial++ {
		cols := []Column{{Name: IDColumn, Typ: TInt}}
		for i := 0; i < 1+rng.Intn(4); i++ {
			cols = append(cols, Column{Name: string(rune('a' + i)), Typ: Type(rng.Intn(3)), Nullable: true})
		}
		// Some string columns only ever receive NULLs and wrong-typed
		// values, so their dictionary is empty and every code is 0.
		noStrings := make([]bool, len(cols))
		for c := range cols {
			noStrings[c] = cols[c].Typ == TString && rng.Intn(3) == 0
		}
		tbl := NewTable("b", cols)
		row := make([]Value, len(cols))
		nrows := rng.Intn(150)
		for r := 0; r < nrows; r++ {
			for c, col := range cols {
				switch k := rng.Intn(12); {
				case k == 0:
					row[c] = NullOf(col.Typ)
				case k == 1: // NULL carrying a payload
					row[c] = Value{Null: true, Typ: col.Typ, I: int64(rng.Intn(5)), S: words[rng.Intn(len(words))]}
				case k == 2: // NULL of another type
					row[c] = NullOf(Type((int(col.Typ) + 1 + rng.Intn(2)) % 3))
				case k == 3 || noStrings[c]: // wrong-typed value
					typ := Type((int(col.Typ) + 1 + rng.Intn(2)) % 3)
					row[c] = Value{Typ: typ, I: int64(rng.Intn(9)), F: rng.Float64(), S: words[rng.Intn(len(words))]}
				case col.Typ == TInt:
					row[c] = Int(int64(rng.Intn(100)))
				case col.Typ == TFloat:
					row[c] = Float(rng.NormFloat64())
				default:
					row[c] = Str(words[rng.Intn(len(words))])
				}
			}
			tbl.AppendRow(row)
		}
		got, err := TableFromSnapshot(tbl.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := cellBytes(tbl); got.Bytes() != want || tbl.Bytes() != want {
			t.Fatalf("trial %d: restored %d bytes, appended %d, per-cell oracle %d", trial, got.Bytes(), tbl.Bytes(), want)
		}
		for c := range got.cols {
			if d := got.cols[c].dict; d != nil && d.idx != nil {
				t.Fatalf("trial %d: restore built the index of column %d's dictionary", trial, c)
			}
		}
	}
}

// TestRestoredDictCode: a restored dictionary answers Code exactly like
// the original, for present and absent strings, and appending to the
// restored table (the redo-replay path) interns against the existing
// entries, so it re-snapshots to the same canonical form as the
// original after the same appends.
func TestRestoredDictCode(t *testing.T) {
	orig := snapshotTable(t)
	restored, err := TableFromSnapshot(orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ci := orig.ColIndex("title")
	od, rd := orig.cols[ci].dict, restored.cols[ci].dict
	for _, s := range append(append([]string(nil), od.Strs()...), "absent", "ALPHA", "alpha ") {
		oc, ook := od.Code(s)
		rc, rok := rd.Code(s)
		if oc != rc || ook != rok {
			t.Fatalf("Code(%q): original (%d,%v), restored (%d,%v)", s, oc, ook, rc, rok)
		}
	}
	for _, row := range [][]Value{
		{Int(8), Int(1), Str("beta"), Float(2)},
		{Int(9), Int(1), Str("delta"), Float(3)},
		{Int(10), Int(2), Str("alpha"), Float(4)},
		{Int(11), Int(2), Str("delta"), NullOf(TFloat)},
	} {
		orig.AppendRow(row)
		restored.AppendRow(row)
	}
	tablesBitEqual(t, orig, restored)
	want, got := orig.Snapshot().Columns[ci], restored.Snapshot().Columns[ci]
	if strings.Join(want.Dict, "|") != strings.Join(got.Dict, "|") {
		t.Fatalf("dictionary after appends: restored %q, original %q", got.Dict, want.Dict)
	}
	for r := range want.Codes {
		if want.Codes[r] != got.Codes[r] {
			t.Fatalf("row %d code: restored %d, original %d", r, got.Codes[r], want.Codes[r])
		}
	}
	if _, err := TableFromSnapshot(restored.Snapshot()); err != nil {
		t.Fatalf("restored table after appends is not canonical: %v", err)
	}
}
