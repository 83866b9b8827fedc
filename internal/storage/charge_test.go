package storage

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/chargetest"
	"repro/internal/rel"
)

// TestChunkScanChargeMatchesAssembled is the BytesCharged parity
// property through persistence: a table holding NULLs, empty strings,
// and exception cells, saved at several chunk sizes and scanned chunk
// by chunk with and without a redo overlay at several worker counts,
// charges exactly the bytes and rows the assembled path and the
// reference executor charge — and both equal the charge computed from
// the definition. Segments take chunk sizes in multiples of 64; the
// engine's TestChunkChargeMatchesAssembled covers 1- and 7-row chunks.
func TestChunkScanChargeMatchesAssembled(t *testing.T) {
	const nrows = 700
	for _, chunkRows := range []int{64, 256, 4096} {
		for _, overlay := range []bool{false, true} {
			t.Run(fmt.Sprintf("chunk%d_overlay%v", chunkRows, overlay), func(t *testing.T) {
				dir := t.TempDir()
				b, err := engine.Build(chargetest.DB(nrows), nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Save(dir, b, Options{ChunkRows: chunkRows}); err != nil {
					t.Fatal(err)
				}
				s, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if overlay {
					var tail [][]rel.Value
					for i := nrows; i < nrows+37; i++ {
						tail = append(tail, chargetest.Row(i))
					}
					if err := s.AppendBatch("doc", tail); err != nil {
						t.Fatal(err)
					}
				}
				db, err := s.Database()
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := s.Built()
				if err != nil {
					t.Fatal(err)
				}
				paged, err := s.PagedBuilt()
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range chargetest.Queries() {
					plan := scanPlan(t, db, q.SQL)
					ref, err := engine.ExecuteReference(oracle, plan)
					if err != nil {
						t.Fatal(err)
					}
					if wantBytes := q.Want(db); ref.Stats.BytesCharged != wantBytes {
						t.Fatalf("query %d: reference charged %d bytes, definition says %d", qi, ref.Stats.BytesCharged, wantBytes)
					}
					asm, err := engine.Execute(oracle, plan)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("query %d assembled", qi), asm, ref)
					pp, err := paged.Prepared(plan)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 7} {
						got, err := pp.ExecuteContextWorkers(t.Context(), workers)
						if err != nil {
							t.Fatalf("query %d workers %d: %v", qi, workers, err)
						}
						requireSameResult(t, fmt.Sprintf("query %d chunk scan workers %d", qi, workers), got, asm)
					}
				}
			})
		}
	}
}
