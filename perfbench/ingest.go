package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/shred"
	"repro/internal/storage"
)

// The ingest flush policy: group commit with GroupCommitDelay 0 and a
// single writer, so every AppendBatch is one redo write and one fsync.
const (
	batchRows    = 100
	compactEvery = 40 // batches between explicit Store.Compact calls
	readEvery    = 20 // batches between read-after-write checks
	oracleEvery  = 8  // reads between comparisons with the Store.Built oracle
)

// ingestState holds the base data and the rows the writer appends. The
// write phase runs in cycles: each cycle starts from a freshly saved
// store of the base data and appends every row of a second seeded
// document once, so the work per cycle does not grow with the length
// of the run.
type ingestState struct {
	built      *engine.Built // the base data, saved afresh for every cycle
	mappingSQL string
	root       string
	cycle      int
	dir        string // the current cycle's store
	budget     int64
	store      *storage.Store
	tables     []string       // manifest order
	base       map[string]int // rows per table in the base data
	baseBytes  int64          // Table.Bytes of the base data
	source     map[string][][]rel.Value
	read       planned // the scan query read-after-write runs
}

// setupIngest generates the data and the second document, and opens
// the first cycle's store under a budget of 1/4 of the data.
func setupIngest(b *bench, rep int, o *obsCfg) (*ingestState, error) {
	tr := o.tracer()
	fix, err := newFixture(b.seed, tr)
	if err != nil {
		return nil, err
	}
	m, db, built, err := fix.hybrid(tr)
	if err != nil {
		return nil, err
	}
	// Shredding both documents together gives the second one's rows
	// IDs that do not collide with the first's; they follow its rows.
	joint, err := shred.Shred(m, fix.doc, dblpDoc(fix.tree, b.seed+7919))
	if err != nil {
		return nil, err
	}
	s := &ingestState{built: built, mappingSQL: m.SQLSchema(), root: b.repDir("ingest", rep),
		budget: db.Bytes() / 4, base: map[string]int{}, source: map[string][][]rel.Value{}, baseBytes: db.Bytes()}
	for _, t := range db.Tables() {
		jt := joint.Table(t.Name)
		n := t.RowCount()
		for _, r := range []int{0, n / 2, n - 1} {
			for c := range t.Columns {
				if r >= 0 && !jt.ValueAt(r, c).BitEqual(t.ValueAt(r, c)) {
					return nil, fmt.Errorf("joint shred of %s differs from the first document's at row %d", t.Name, r)
				}
			}
		}
		var rows [][]rel.Value
		for r := n; r < jt.RowCount(); r++ {
			row := make([]rel.Value, len(jt.Columns))
			for c := range row {
				row[c] = jt.ValueAt(r, c)
			}
			rows = append(rows, row)
		}
		s.tables = append(s.tables, t.Name)
		s.base[t.Name] = n
		s.source[t.Name] = rows
	}
	plans, err := planMix(fix, m, db, &physical.Config{})
	if err != nil {
		return nil, err
	}
	s.read = plans[0]
	if err := s.fresh(o); err != nil {
		return nil, err
	}
	return s, nil
}

// fresh saves the base data as a new chunked store, opens it, and
// warms one read.
func (s *ingestState) fresh(o *obsCfg) error {
	s.cycle++
	s.dir = filepath.Join(s.root, fmt.Sprintf("cycle-%d", s.cycle))
	if _, err := storage.Save(s.dir, s.built, storage.Options{MappingSQL: s.mappingSQL}); err != nil {
		return err
	}
	opts := storage.Options{MemBudgetBytes: s.budget, GroupCommitDelay: 0}
	if o != nil {
		opts.Registry = o.reg
	}
	sp := o.tracer().begin(0, -1, "storage.open")
	st, err := storage.Open(s.dir, opts)
	o.tracer().end(sp)
	if err != nil {
		return err
	}
	s.store = st
	if _, _, err := s.readOnce(context.Background(), nil, -1, o); err != nil {
		st.Close()
		return err
	}
	return nil
}

// readOnce builds a fresh paged view and runs the scan query on it.
func (s *ingestState) readOnce(ctx context.Context, tr *tracer, parent int, o *obsCfg) (*engine.Built, *engine.Result, error) {
	req := int64(0)
	if tr != nil && parent >= 0 {
		req = tr.reqOf(parent)
	}
	sp := tr.begin(req, parent, "storage.paged_view")
	pb, err := s.store.PagedBuilt()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if o != nil {
		pb.AttachObs(nil, o.reg)
	}
	sp = tr.begin(req, parent, "engine.execute")
	defer tr.end(sp)
	pp, err := pb.PreparedContext(ctx, s.read.plan)
	if err != nil {
		return nil, nil, err
	}
	res, err := pp.ExecuteContextWorkers(ctx, sessions)
	return pb, res, err
}

// ingestOut is what the write phase measured.
type ingestOut struct {
	acked                    int64
	wall                     time.Duration // appends, compactions and reads only
	appends, reads, compacts []float64     // ms
	readCPU                  time.Duration // process CPU of all the reads
	space                    []float64     // space_amp at the end of each cycle
	userBytes, redoBytes     int64
	cycles                   int
	cpu                      time.Duration // process CPU of the timed work
	// Per completed cycle: rows/s and the AppendBatch p50 and p90. The
	// run reports their medians, so a burst of I/O or CPU contention
	// from outside moves one cycle, not the run.
	rate, p50, p90 []float64
}

// writePhase runs cycles until d of timed work has passed. Set-up of a
// cycle's store, the oracle comparisons and the end-of-cycle restart
// check are not timed.
func (s *ingestState) writePhase(b *bench, d time.Duration, o *obsCfg) (*ingestOut, error) {
	out := &ingestOut{}
	for {
		acked0, wall0, n0 := out.acked, out.wall, len(out.appends)
		appended, err := s.runCycle(b, d, o, out)
		if err != nil {
			s.store.Close()
			return nil, err
		}
		if out.wall < d { // the cycle ran to completion
			out.rate = append(out.rate, float64(out.acked-acked0)/(out.wall-wall0).Seconds())
			lat := append([]float64(nil), out.appends[n0:]...)
			out.p50 = append(out.p50, pct(lat, 50))
			out.p90 = append(out.p90, pct(lat, 90))
		}
		space, err := s.finish(appended)
		if err != nil {
			return nil, err
		}
		out.space = append(out.space, space)
		out.cycles++
		if out.wall >= d {
			return out, nil
		}
		if err := s.fresh(o); err != nil {
			return nil, err
		}
	}
}

// runCycle appends the second document's rows table by table in
// 100-row batches, compacting every compactEvery batches and reading
// every readEvery batches, until the rows run out or out.wall reaches
// d. It returns the rows acknowledged per table, in append order.
func (s *ingestState) runCycle(b *bench, d time.Duration, o *obsCfg, out *ingestOut) (map[string][][]rel.Value, error) {
	tr := o.tracer()
	ctx := context.Background()
	appended := map[string][][]rel.Value{}
	var paused, pausedCPU time.Duration
	start, c0 := time.Now(), cpuTime()
	defer func() {
		out.wall += time.Since(start) - paused
		out.cpu += cpuTime() - c0 - pausedCPU
	}()
	batch := 0
	for _, name := range s.tables {
		src := s.source[name]
		for off := 0; off < len(src); off += batchRows {
			if out.wall+time.Since(start)-paused >= d {
				out.redoBytes += s.redoSize()
				return appended, nil
			}
			batch++
			rows := src[off:min(off+batchRows, len(src))]
			sp := tr.begin(tr.request(), -1, "storage.append_batch")
			t0 := time.Now()
			err := s.store.AppendBatch(name, rows)
			out.appends = append(out.appends, ms(time.Since(t0)))
			tr.end(sp)
			b.attempted++
			if err != nil {
				b.failed++
			} else {
				out.acked += int64(len(rows))
				appended[name] = append(appended[name], rows...)
				for _, r := range rows {
					out.userBytes += rel.RowBytes(r)
				}
			}
			if batch%compactEvery == 0 {
				out.redoBytes += s.redoSize()
				sp := tr.begin(tr.request(), -1, "storage.compact")
				t0 := time.Now()
				err := s.store.Compact()
				out.compacts = append(out.compacts, ms(time.Since(t0)))
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("compact: %w", err)
				}
			}
			if batch%readEvery == 0 {
				root := tr.begin(tr.request(), -1, "read")
				t0, rc0 := time.Now(), cpuTime()
				pb, res, err := s.readOnce(ctx, tr, root, o)
				out.reads = append(out.reads, ms(time.Since(t0)))
				out.readCPU += cpuTime() - rc0
				tr.end(root)
				if err != nil {
					return nil, fmt.Errorf("read after write: %w", err)
				}
				for _, t := range s.tables {
					want := s.base[t] + len(appended[t])
					if got := pb.DB.Table(t).RowCount(); got != want {
						return nil, wrongf("paged view of %s has %d rows, want %d segment rows plus acknowledged appends", t, got, want)
					}
				}
				if len(out.reads)%oracleEvery == 1 {
					t0, oc0 := time.Now(), cpuTime()
					if err := s.oracle(res); err != nil {
						return nil, err
					}
					paused += time.Since(t0)
					pausedCPU += cpuTime() - oc0
				}
			}
		}
	}
	out.redoBytes += s.redoSize()
	return appended, nil
}

func (s *ingestState) redoSize() int64 {
	if fi, err := os.Stat(filepath.Join(s.dir, s.store.Manifest().RedoFile)); err == nil {
		return fi.Size()
	}
	return 0
}

// oracle compares a read with the reference evaluator over the
// assembled Store.Built of the same store state.
func (s *ingestState) oracle(res *engine.Result) error {
	ob, err := s.store.Built()
	if err != nil {
		return err
	}
	ref, err := engine.ExecuteReference(ob, s.read.plan)
	if err != nil {
		return err
	}
	if res.Stats.RowsScanned != ref.Stats.RowsScanned {
		return wrongf("%s: paged read scanned %d rows, oracle %d", s.read.text, res.Stats.RowsScanned, ref.Stats.RowsScanned)
	}
	return sameResult(s.read.text, ref, res.Cols, res.Rows)
}

// finish measures space, closes the store, reopens it, checks that
// every acknowledged row reads back bit for bit in append order, and
// removes the cycle's store.
func (s *ingestState) finish(appended map[string][][]rel.Value) (spaceAmp float64, err error) {
	live := s.baseBytes
	for _, rows := range appended {
		for _, r := range rows {
			live += rel.RowBytes(r)
		}
	}
	spaceAmp = float64(dirBytes(s.dir)) / float64(live)
	if err := s.store.Close(); err != nil {
		return 0, err
	}
	st, err := storage.Open(s.dir, storage.Options{MemBudgetBytes: s.budget})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for _, name := range s.tables {
		t, err := st.Table(name)
		if err != nil {
			return 0, err
		}
		rows := appended[name]
		base := s.base[name]
		if t.RowCount() != base+len(rows) {
			return 0, wrongf("reopened %s has %d rows, want %d", name, t.RowCount(), base+len(rows))
		}
		for i, row := range rows {
			for c, v := range row {
				if !t.ValueAt(base+i, c).BitEqual(v) {
					return 0, wrongf("reopened %s row %d column %d is %v, acknowledged %v", name, base+i, c, t.ValueAt(base+i, c), v)
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	return spaceAmp, os.RemoveAll(s.dir)
}

// timedIngest is the untraced ingest run.
func timedIngest(b *bench) error {
	var s *ingestState
	err := timeSetup(b, func(i int) (func(), error) {
		var err error
		s, err = setupIngest(b, i, nil)
		if err != nil {
			return nil, err
		}
		return func() { s.store.Close() }, nil
	})
	if err != nil {
		return err
	}
	out, err := s.writePhase(b, b.seconds, nil)
	if err != nil {
		return err
	}
	m := b.metrics
	if len(out.rate) == 0 {
		return fmt.Errorf("ingest: no write cycle completed in %v", b.seconds)
	}
	m["cpu_ms_per_op"] = ms(out.cpu) / float64(len(out.appends))
	m["read_cpu_ms"] = ms(out.readCPU) / float64(len(out.reads))
	m["space_amp"] = median(out.space)
	wallf("read_ms", median(out.reads), "ms")
	wallf("ingest_rows_per_s", median(out.rate), "rows/s")
	wallf("append_p50_ms", median(out.p50), "ms")
	wallf("append_p90_ms", median(out.p90), "ms")
	fmt.Printf("ingest: %d rows in %d batches over %d cycles, %d compactions, %d reads; data %d bytes, budget %d bytes\n",
		out.acked, len(out.appends), out.cycles, len(out.compacts), len(out.reads), s.baseBytes, s.budget)
	wallf("append_p99_ms", pct(out.appends, 99), "ms")
	wallf("read_after_write_p99_ms", pct(out.reads, 99), "ms")
	fmt.Printf("samples: %d appends, %d reads\n", len(out.appends), len(out.reads))
	return nil
}

// tracedIngest runs an untraced write phase, then a traced one, and
// reports the storage layers.
func tracedIngest(b *bench, own bool) error {
	d := time.Second
	if own {
		d = b.seconds / 2
	}
	s0, err := setupIngest(b, 0, nil)
	if err != nil {
		return err
	}
	out0, err := s0.writePhase(b, d, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	o := &obsCfg{tr: tr, oc: newObsClock(tr), reg: obs.NewRegistry()}
	s, err := setupIngest(b, 1, o)
	if err != nil {
		return err
	}
	setupLayers(b, tr)
	from := tr.at(time.Now())
	snap0 := o.reg.Snapshot()
	out, err := s.writePhase(b, d, o)
	if err != nil {
		return err
	}
	snap1 := o.reg.Snapshot()
	m := b.metrics
	delta := func(k string) float64 { return snap1[k] - snap0[k] }
	// Saves run without the registry, so only compactions count here.
	compactBytes := delta("storage.save.bytes_written")
	m["trace_overhead_frac"] = 1 - (float64(out.acked)/out.wall.Seconds())/(float64(out0.acked)/out0.wall.Seconds())
	m["storage.append_batch_p50_ms"] = median(tr.durations("storage.append_batch", from))
	m["storage.append_batch_p99_ms"] = pct(tr.durations("storage.append_batch", from), 99)
	m["storage.rows_per_group_commit"] = ratio(delta("storage.redo.records_appended"), delta("storage.redo.group_commits"))
	m["storage.compact_ms"] = median(tr.durations("storage.compact", from))
	m["storage.compact_bytes_written"] = ratio(compactBytes, float64(len(out.compacts)))
	m["storage.write_amp"] = (compactBytes + float64(out.redoBytes)) / float64(out.userBytes)
	m["storage.paged_view_ms"] = median(tr.durations("storage.paged_view", from))
	execLayers(b, tr.durations("engine.execute", from), snap0, snap1)
	covered := sum(tr.durations("storage.append_batch", from)) + sum(tr.durations("storage.compact", from)) +
		sum(tr.durations("read", from))
	m["unexplained_frac"] = 1 - covered/ms(out.wall)
	fmt.Printf("ingest traced: %d rows over %d cycles, %.0f rows/s traced vs %.0f untraced\n",
		out.acked, out.cycles, float64(out.acked)/out.wall.Seconds(), float64(out0.acked)/out0.wall.Seconds())
	return writeTrace(b, "ingest", tr)
}
