package storage

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/rel"
)

// FuzzSegmentDecode hammers the segment decoder with arbitrary bytes.
// The properties:
//
//  1. DecodeSegment never panics and never allocates proportionally to
//     claimed (rather than actual) sizes.
//  2. Anything that decodes AND validates through rel.TableFromSnapshot
//     re-encodes to a segment that decodes back to a bit-identical
//     table (round-trip identity on the accepted subset).
func FuzzSegmentDecode(f *testing.F) {
	for _, tb := range fixtureDB().Tables() {
		f.Add(EncodeSegment(tb.Snapshot()))
	}
	// Minimal valid segment: empty single-column table.
	empty := rel.NewTable("e", []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}})
	f.Add(EncodeSegment(empty.Snapshot()))
	// Seeds aimed at the interesting branches: bad magic, future
	// version, truncations, and a CRC-valid envelope over garbage.
	seed := EncodeSegment(empty.Snapshot())
	bad := append([]byte(nil), seed...)
	bad[0] ^= 0xff
	f.Add(bad)
	future := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(future[4:8], SegmentVersion+1)
	f.Add(future)
	f.Add(seed[:len(seed)-3])
	f.Add(wrapEnvelope(segMagic, SegmentVersion, []byte{0x01, 0x61, 0x00, 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSegment(data)
		if err != nil {
			return
		}
		tb, err := rel.TableFromSnapshot(snap)
		if err != nil {
			return
		}
		enc := EncodeSegment(tb.Snapshot())
		snap2, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted segment does not decode: %v", err)
		}
		tb2, err := rel.TableFromSnapshot(snap2)
		if err != nil {
			t.Fatalf("re-encoding of accepted segment does not validate: %v", err)
		}
		if tb.Name != tb2.Name || tb.RowCount() != tb2.RowCount() ||
			tb.Generation() != tb2.Generation() || tb.Bytes() != tb2.Bytes() {
			t.Fatalf("round trip drifted: %s/%d/%d/%d vs %s/%d/%d/%d",
				tb.Name, tb.RowCount(), tb.Generation(), tb.Bytes(),
				tb2.Name, tb2.RowCount(), tb2.Generation(), tb2.Bytes())
		}
		for r := 0; r < tb.RowCount(); r++ {
			for c := range tb.Columns {
				if !tb.ValueAt(r, c).BitEqual(tb2.ValueAt(r, c)) {
					t.Fatalf("round trip drifted at (%d,%d)", r, c)
				}
			}
		}
		// A second encoding must be byte-stable.
		if !bytes.Equal(enc, EncodeSegment(tb2.Snapshot())) {
			t.Fatal("encoding of accepted segment is not deterministic")
		}
	})
}

// FuzzRedoDecode gives the redo log reader the same treatment: no
// panics, and accepted logs re-encode faithfully in the same framing —
// including the batched (version 2) group-commit framing.
func FuzzRedoDecode(f *testing.F) {
	f.Add(emptyRedoLog(RedoVersion))
	f.Add(emptyRedoLog(RedoBatchVersion))
	log := emptyRedoLog(RedoVersion)
	rec := encodeRedoRecord("book", []rel.Value{rel.Int(1), rel.Str("x")})
	withRec := append(append(log[:redoHeaderSize:redoHeaderSize], rec...), encodeRedoFooter(1)...)
	f.Add(withRec)
	f.Add(withRec[:len(withRec)-redoFooterSize]) // committed record, missing footer
	// A batched record: three rows to one table under one frame.
	batched := emptyRedoLog(RedoBatchVersion)[:redoHeaderSize]
	batched = append(batched, encodeRedoBatchRecord("book", [][]rel.Value{
		{rel.Int(1), rel.Str("x")},
		{rel.Int(2), rel.Str("y")},
		{rel.NullOf(rel.TInt), rel.Str("z")},
	})...)
	batched = append(batched, encodeRedoFooter(3)...)
	f.Add(batched)
	f.Add([]byte("XRDO"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, version, err := readRedo(data)
		if err != nil {
			return
		}
		out := emptyRedoLog(version)[:redoHeaderSize]
		if version == RedoVersion {
			for _, r := range recs {
				out = append(out, encodeRedoRecord(r.Table, r.Row)...)
			}
		} else {
			for _, r := range recs {
				out = append(out, encodeRedoBatchRecord(r.Table, [][]rel.Value{r.Row})...)
			}
		}
		out = append(out, encodeRedoFooter(uint32(len(recs)))...)
		recs2, version2, err := readRedo(out)
		if err != nil {
			t.Fatalf("re-encoding of accepted redo log rejected: %v", err)
		}
		if version2 != version {
			t.Fatalf("round trip changed version: %d vs %d", version2, version)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip drifted: %d records vs %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs[i].Table != recs2[i].Table || len(recs[i].Row) != len(recs2[i].Row) {
				t.Fatalf("record %d drifted", i)
			}
			for j := range recs[i].Row {
				if !recs[i].Row[j].BitEqual(recs2[i].Row[j]) {
					t.Fatalf("record %d value %d drifted", i, j)
				}
			}
		}
	})
}

// cellBytes is the per-cell byte accounting a validated table must
// carry: the per-row overhead plus every materialized value's Width,
// exactly what AppendRow accumulates.
func cellBytes(tb *rel.Table) int64 {
	var b int64
	for r := 0; r < tb.RowCount(); r++ {
		b += 8
		for c := range tb.Columns {
			b += int64(tb.ValueAt(r, c).Width())
		}
	}
	return b
}

// FuzzChunkDecode hammers the chunked-segment decoder: arbitrary bytes
// never panic, anything that decodes AND validates carries the
// per-cell byte accounting, and it re-encodes to a chunked segment that
// decodes back bit-identically.
func FuzzChunkDecode(f *testing.F) {
	for _, tb := range fixtureDB().Tables() {
		enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	empty := rel.NewTable("e", []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}})
	seed, err := EncodeChunkedSegment(empty.Snapshot(), DefaultChunkRows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	bad := append([]byte(nil), seed...)
	bad[0] ^= 0xff
	f.Add(bad)
	future := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(future[4:8], ChunkSegmentVersion+1)
	f.Add(future)
	f.Add(seed[:len(seed)-3])
	f.Add(wrapEnvelope(chunkDirMagic, ChunkSegmentVersion, []byte{0x01, 0x61, 0x00, 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeChunkedSegment(data)
		if err != nil {
			return
		}
		tb, err := rel.TableFromSnapshot(snap)
		if err != nil {
			return
		}
		if want := cellBytes(tb); tb.Bytes() != want {
			t.Fatalf("accepted chunked segment accounts %d bytes, per-cell oracle %d", tb.Bytes(), want)
		}
		enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
		if err != nil {
			t.Fatalf("re-encoding of accepted chunked segment failed: %v", err)
		}
		snap2, err := DecodeChunkedSegment(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted chunked segment does not decode: %v", err)
		}
		tb2, err := rel.TableFromSnapshot(snap2)
		if err != nil {
			t.Fatalf("re-encoding of accepted chunked segment does not validate: %v", err)
		}
		if tb.Name != tb2.Name || tb.RowCount() != tb2.RowCount() ||
			tb.Generation() != tb2.Generation() || tb.Bytes() != tb2.Bytes() {
			t.Fatalf("round trip drifted: %s/%d/%d/%d vs %s/%d/%d/%d",
				tb.Name, tb.RowCount(), tb.Generation(), tb.Bytes(),
				tb2.Name, tb2.RowCount(), tb2.Generation(), tb2.Bytes())
		}
		for r := 0; r < tb.RowCount(); r++ {
			for c := range tb.Columns {
				if !tb.ValueAt(r, c).BitEqual(tb2.ValueAt(r, c)) {
					t.Fatalf("round trip drifted at (%d,%d)", r, c)
				}
			}
		}
		// A second encoding must be byte-stable.
		enc2, err := EncodeChunkedSegment(tb2.Snapshot(), 64)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatal("encoding of accepted chunked segment is not deterministic")
		}
	})
}
