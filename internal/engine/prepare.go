package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// PreparedPlan is the compiled, reusable form of an optimizer plan
// over one Built: a pipelined batch executor per union branch, with
// predicate closures, projection layouts, and probe structures (join
// hash tables, EXISTS sets, partition zips) resolved once at compile
// time against the Built's plan-lifetime caches. Executing a
// PreparedPlan allocates no per-row intermediates: operators pass
// fixed-size rel.Batch blocks with selection vectors, joins write
// combined tuples into pooled batch arenas, and only the projected
// output rows are freshly allocated (in one chunk per batch).
//
// A PreparedPlan is safe for concurrent Execute calls; per-execution
// operator state comes from a pool.
type PreparedPlan struct {
	// Parallelism caps the number of union branches executed
	// concurrently when the morsel pool is off (Workers <= 1); <= 0
	// means GOMAXPROCS. Results are bit-identical at any setting:
	// branches land in fixed slots and merge in plan order.
	Parallelism int

	// Workers sizes the morsel worker pool shared by one Execute call.
	// When > 1, every branch's driver (table scan, index range scan, or
	// partition-group scan) is split into fixed-size morsels dispatched
	// to the pool, so a single wide scan — and the hash-join probes and
	// filters downstream of it — runs on several cores at once. 0 or 1
	// keeps the serial per-branch pipeline (branches still fan out under
	// Parallelism); < 0 means GOMAXPROCS. Every morsel emits into a
	// fixed (branch, morsel) slot and slots merge in plan order, so
	// rows, order, values, and stats are bit-identical at any setting.
	Workers int

	built    *Built
	plan     *optimizer.Plan
	cols     []string
	branches []*preparedBranch
}

// Prepare compiles a plan for the batch executor. All plan-shape
// errors the row-at-a-time executor reported during execution (unknown
// tables, unbuilt indexes, out-of-scope columns, unapplied predicates)
// are reported here instead, once.
func Prepare(b *Built, plan *optimizer.Plan) (*PreparedPlan, error) {
	pp := &PreparedPlan{built: b, plan: plan, cols: plan.Query.OutputColumns()}
	for _, br := range plan.Branches {
		pb, err := prepareBranch(b, br)
		if err != nil {
			return nil, err
		}
		pp.branches = append(pp.branches, pb)
	}
	return pp, nil
}

// Execute runs the prepared plan without cancellation (a background
// context). See ExecuteContext.
func (pp *PreparedPlan) Execute() (*Result, error) {
	return pp.ExecuteContext(context.Background())
}

// ExecuteContext runs the prepared plan. With Workers <= 1 whole union
// branches fan out on a pool bounded by Parallelism; with Workers > 1
// every branch's driver is additionally split into morsels dispatched
// to one shared worker pool (see executeMorsels). Either way each unit
// of work lands in a fixed slot and slots merge in plan order, so
// repeated runs produce identical results at any setting.
//
// ctx cancels the execution: cancellation is polled once per driver
// batch, so a cancelled call returns ctx's error promptly without
// finishing the scan or join it was in. A cancelled execution never
// poisons the Built's single-flight structure caches (structure builds
// always run to completion; see cacheGet) and returns pooled operator
// state for reuse, so a later ExecuteContext on the same PreparedPlan
// succeeds with warm caches.
func (pp *PreparedPlan) ExecuteContext(ctx context.Context) (*Result, error) {
	return pp.ExecuteContextWorkers(ctx, pp.Workers)
}

// ExecuteContextWorkers is ExecuteContext at an explicit worker count,
// leaving the shared Workers field untouched. A PreparedPlan cached on
// a Built is shared by every session that prepares the same plan, so a
// long-lived multi-session server cannot set Workers per request
// without racing other sessions; this entry point carries the count
// through the call instead. Workers semantics match the field: 0 or 1
// is the serial per-branch pipeline, < 0 means GOMAXPROCS, > 1 sizes
// the morsel pool. Results are bit-identical at any count.
func (pp *PreparedPlan) ExecuteContextWorkers(ctx context.Context, workers int) (*Result, error) {
	var tr *obs.Tracer
	var reg *obs.Registry
	if pp.built != nil {
		tr, reg = pp.built.obsTracer, pp.built.obsReg
	}
	if err := ctx.Err(); err != nil {
		reg.Counter("engine.exec.cancellations").Inc()
		return nil, err
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	n := len(pp.branches)
	sp := tr.StartSpan("executor.execute",
		obs.Int("branches", int64(n)), obs.Int("workers", int64(workers)))
	var res *Result
	var err error
	if workers > 1 {
		res, err = pp.executeMorsels(ctx, sp, reg, workers)
	} else {
		res, err = pp.executeBranches(ctx, sp)
	}
	if err == nil {
		err = sortResult(res, pp.plan.Query.OrderBy)
	}
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		if ctx.Err() != nil {
			reg.Counter("engine.exec.cancellations").Inc()
		}
		return nil, err
	}
	sp.SetAttr(obs.Int("rows_out", int64(len(res.Rows))),
		obs.Int("rows_scanned", res.Stats.RowsScanned),
		obs.Int("rows_sought", res.Stats.RowsSought))
	sp.End()
	reg.Counter("engine.exec.executions").Inc()
	reg.Counter("engine.exec.rows_out").Add(int64(len(res.Rows)))
	reg.Counter("engine.exec.rows_scanned").Add(res.Stats.RowsScanned)
	reg.Counter("engine.exec.rows_sought").Add(res.Stats.RowsSought)
	return res, nil
}

// executeBranches is the branch-parallel execution path (Workers <= 1):
// each branch runs its whole pipeline serially, independent branches
// fan out on a pool bounded by Parallelism, and each branch emits into
// a fixed slot merged in plan order.
func (pp *PreparedPlan) executeBranches(ctx context.Context, sp *obs.Span) (*Result, error) {
	n := len(pp.branches)
	type branchOut struct {
		rows [][]rel.Value
		st   ExecStats
		err  error
	}
	slots := make([]branchOut, n)
	runBranch := func(i int) {
		bs := sp.Child("executor.branch",
			obs.Int("branch", int64(i)),
			obs.Int("operators", int64(len(pp.branches[i].ops))))
		slots[i].rows, slots[i].err = pp.branches[i].run(ctx, &slots[i].st)
		if slots[i].err != nil {
			bs.SetAttr(obs.String("error", slots[i].err.Error()))
		}
		bs.SetAttr(obs.Int("rows", int64(len(slots[i].rows))),
			obs.Int("rows_scanned", slots[i].st.RowsScanned),
			obs.Int("rows_sought", slots[i].st.RowsSought))
		bs.End()
	}
	par := pp.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := range pp.branches {
			runBranch(i)
			if slots[i].err != nil {
				break
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(par)
		for w := 0; w < par; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					runBranch(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	res := &Result{Cols: pp.cols}
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		res.Rows = append(res.Rows, slots[i].rows...)
		res.Stats.add(slots[i].st)
	}
	return res, nil
}

// srcKind discriminates driver sources.
type srcKind int

const (
	srcScan srcKind = iota
	srcSeek
	srcZip
	srcChunks
)

// driverSrc is the compiled driving access of a branch.
type driverSrc struct {
	kind    srcKind
	table   *rel.Table
	bi      *builtIndex
	seekOp  opKind
	seekVal rel.Value
	zip     *partZip
	// chunks feeds a srcChunks driver: the scan pulls resident fragments
	// from the source one chunk at a time instead of materializing the
	// table, so peak scan memory follows the source's paging budget.
	chunks ScanSource
	// rows is the materialized row view the pipeline hands downstream
	// operators by reference: the table's generation-cached Rows() for
	// scans and seeks, the zip rows for partition drivers. Resolved at
	// prepare time so execution never takes the materialization lock.
	// srcChunks drivers leave it nil and resolve rows per chunk.
	rows [][]rel.Value
}

// pipeKind discriminates pipeline operators.
type pipeKind int

const (
	pipeFilter pipeKind = iota
	pipeHashJoin
	pipeINLJoin
)

// pipeOp is one compiled pipeline operator.
type pipeOp struct {
	kind pipeKind

	// pred filters rows in place on the selection vector (pipeFilter).
	pred func([]rel.Value) bool

	// Join fields.
	outerPos int
	width    int // combined tuple width after this join
	slot     int // output-batch slot in branchState.joinOut

	// Hash join: cached build side, plus the per-execution scan
	// accounting its inner source incurs (the reference executor
	// re-scans the build side every execution; the batch executor
	// charges the same bytes and counters but skips the rebuild).
	jt          *joinTable
	scanBytes   int64 // BytesCharged per run (0 for zips/seeks)
	scanCount   int64 // RowsScanned per run
	soughtCount int64 // RowsSought per run (seek-fed build side)

	// INL join.
	bi        *builtIndex
	innerRows [][]rel.Value // generation-cached row view of the inner table
}

// proj is one projection slot.
type proj struct {
	pos  int
	null bool
}

// preparedBranch is one compiled union branch.
type preparedBranch struct {
	src driverSrc
	// kerns are the driver-stage columnar filter kernels: every
	// predicate applied before the first join, compiled against the
	// driver table's column vectors (table scans and index seeks only —
	// partition-zip drivers keep row filters in ops). They run over the
	// selection vector of driver row ids before any row is materialized
	// into a batch, in the same WHERE order the reference executor
	// applies.
	kerns      []colKernel
	ops        []pipeOp
	projs      []proj
	nJoinSlots int
	// chunkPreds are the driver-stage predicates of a srcChunks driver,
	// in WHERE order. They are validated once at Prepare (compiled
	// against the table shell and discarded) and recompiled per chunk at
	// run time — every kernel is bit-equivalent to matchCompare, so
	// per-chunk recompilation cannot change results, and chunk-local
	// structures (string dictionaries) get chunk-local kernels.
	chunkPreds []*sqlast.Pred
	// chunkScope is a driver-table-only scope snapshot for per-chunk
	// kernel compilation (the branch scope keeps growing as joins land).
	chunkScope *scope
	// built backs per-chunk kernel compilation (EXISTS probe-set lookups
	// go through its single-flighted cache).
	built *Built
	// pool recycles per-execution operator state (batch buffers) across
	// executions of this branch.
	pool sync.Pool
}

// branchState is the per-execution operator state: the driver batch,
// the driver selection vector the columnar kernels compact, and one
// output batch per join operator. srcChunks drivers also get chunkIn,
// an arena batch of the driver table's width that the surviving rows
// of each chunk batch are read into (late materialization).
type branchState struct {
	in      *rel.Batch
	chunkIn *rel.Batch
	sel     []int32
	joinOut []*rel.Batch
}

func resolveTable(b *Built, name string) *rel.Table {
	if vt := b.ViewTable(name); vt != nil {
		return vt
	}
	return b.DB.Table(name)
}

func colNames(t *rel.Table) []string {
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return cols
}

func prepareBranch(b *Built, br *optimizer.Branch) (*preparedBranch, error) {
	pb := &preparedBranch{}
	sc := newScope()
	a := br.Driver
	var cols []string
	if len(a.PartGroups) > 0 {
		z, err := b.partitionZip(a.Table, a.PartGroups)
		if err != nil {
			return nil, err
		}
		pb.src = driverSrc{kind: srcZip, zip: z, rows: z.rows}
		cols = z.cols
	} else {
		t := resolveTable(b, a.Table)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %s", a.Table)
		}
		cols = colNames(t)
		if a.Kind == optimizer.AccessSeek {
			bi := b.Index(a.Index)
			if bi == nil {
				return nil, fmt.Errorf("engine: index %s not built", a.Index.Name)
			}
			if a.SeekPred == nil {
				return nil, fmt.Errorf("engine: seek access without predicate on %s", a.Table)
			}
			if err := t.Hydrate(); err != nil {
				return nil, err
			}
			pb.src = driverSrc{kind: srcSeek, table: t, bi: bi,
				seekOp: opFromCmp(a.SeekPred.Op), seekVal: a.SeekPred.Value, rows: t.Rows()}
		} else if src := b.ScanSource(a.Table); src != nil && b.ViewTable(a.Table) == nil {
			if src.RowCount() != t.RowCount() {
				return nil, fmt.Errorf("engine: scan source for %s covers %d rows, table declares %d",
					a.Table, src.RowCount(), t.RowCount())
			}
			pb.built = b
			pb.src = driverSrc{kind: srcChunks, table: t, chunks: src}
			pb.chunkScope = newScope()
			pb.chunkScope.add(a.Table, cols)
		} else {
			if err := t.Hydrate(); err != nil {
				return nil, err
			}
			pb.src = driverSrc{kind: srcScan, table: t, rows: t.Rows()}
		}
	}
	sc.add(a.Table, cols)
	applied := make(map[int]bool)
	// Driver-stage filters over a table source compile to columnar
	// kernels; everything after the first join filters materialized rows.
	if err := pb.appendFilters(b, br, sc, applied, pb.src.table); err != nil {
		return nil, err
	}
	for _, j := range br.Joins {
		if err := pb.appendJoin(b, br, sc, j); err != nil {
			return nil, err
		}
		if err := pb.appendFilters(b, br, sc, applied, nil); err != nil {
			return nil, err
		}
	}
	// Verify every predicate was applied (defensive: plans must cover
	// all conjuncts).
	for i := range br.Sel.Where {
		p := &br.Sel.Where[i]
		if p.Kind == sqlast.PredJoin || applied[i] || p == br.Driver.SeekPred {
			continue
		}
		return nil, fmt.Errorf("engine: predicate %s left unapplied", p)
	}
	for _, it := range br.Sel.Items {
		if it.Col == nil {
			pb.projs = append(pb.projs, proj{null: true})
			continue
		}
		pos, err := sc.pos(*it.Col)
		if err != nil {
			return nil, err
		}
		pb.projs = append(pb.projs, proj{pos: pos})
	}
	pb.initPool()
	return pb, nil
}

// appendFilters compiles every not-yet-applied predicate whose
// referenced tables are in scope, in WHERE order — the same
// application order as the reference executor's applyPreds passes.
// When kt is non-nil (the driver-stage pass over a table scan or index
// seek) each predicate compiles to a columnar kernel over kt's vectors
// instead of a row closure; kernels run in the same order the closures
// would have.
func (pb *preparedBranch) appendFilters(b *Built, br *optimizer.Branch, sc *scope, applied map[int]bool, kt *rel.Table) error {
	s := br.Sel
	for i := range s.Where {
		p := &s.Where[i]
		if applied[i] || p.Kind == sqlast.PredJoin || p == br.Driver.SeekPred {
			continue
		}
		if !predInScope(p, sc) {
			continue
		}
		if kt != nil {
			k, err := compileColKernel(b, p, kt, sc)
			if err != nil {
				return err
			}
			if k != nil {
				if pb.src.kind == srcChunks {
					// Validation compile only: the shell has no resident
					// vectors, so the real kernels recompile against each
					// resident chunk at run time (see chunkKernels).
					pb.chunkPreds = append(pb.chunkPreds, p)
				} else {
					pb.kerns = append(pb.kerns, k)
				}
				applied[i] = true
				continue
			}
		}
		f, err := compileBatchPred(b, p, sc)
		if err != nil {
			return err
		}
		pb.ops = append(pb.ops, pipeOp{kind: pipeFilter, pred: f})
		applied[i] = true
	}
	return nil
}

// appendJoin compiles one join step, resolving the build side through
// the Built's structure caches.
func (pb *preparedBranch) appendJoin(b *Built, br *optimizer.Branch, sc *scope, j optimizer.Join) error {
	outerPos, err := sc.pos(j.OuterCol)
	if err != nil {
		return err
	}
	slot := pb.nJoinSlots
	pb.nJoinSlots++
	if j.Method == optimizer.JoinINL {
		bi := b.Index(j.Inner.Index)
		if bi == nil {
			return fmt.Errorf("engine: INL index %s not built", j.Inner.Index.Name)
		}
		t := bi.table
		sc.add(j.Inner.Table, colNames(t))
		pb.ops = append(pb.ops, pipeOp{kind: pipeINLJoin, outerPos: outerPos,
			bi: bi, innerRows: t.Rows(), width: sc.width, slot: slot})
		return nil
	}
	// Hash join: resolve the inner row source.
	var rows [][]rel.Value
	var cols []string
	var srcKey string
	var scanBytes, scanCount, soughtCount int64
	a := j.Inner
	if len(a.PartGroups) > 0 {
		z, zerr := b.partitionZip(a.Table, a.PartGroups)
		if zerr != nil {
			return zerr
		}
		rows, cols = z.rows, z.cols
		srcKey = "p:" + zipKey(a.Table, a.PartGroups)
		scanCount = int64(len(z.rows) * z.groups)
	} else {
		t := resolveTable(b, a.Table)
		if t == nil {
			return fmt.Errorf("engine: unknown table %s", a.Table)
		}
		if err := t.Hydrate(); err != nil {
			return err
		}
		cols = colNames(t)
		if a.Kind == optimizer.AccessSeek {
			// A seek-fed hash build: not produced by today's optimizer,
			// but the reference path supports it. The seek restricts the
			// build rows, so the table stays private to this plan.
			bi := b.Index(a.Index)
			if bi == nil {
				return fmt.Errorf("engine: index %s not built", a.Index.Name)
			}
			if a.SeekPred == nil {
				return fmt.Errorf("engine: seek access without predicate on %s", a.Table)
			}
			ids := bi.seekRange(opFromCmp(a.SeekPred.Op), a.SeekPred.Value)
			trows := t.Rows()
			rows = make([][]rel.Value, len(ids))
			for i, id := range ids {
				rows[i] = trows[id]
			}
			soughtCount = int64(len(rows))
		} else {
			rows = t.Rows()
			if b.ViewTable(a.Table) != nil {
				srcKey = "v:" + a.Table
			} else {
				srcKey = "t:" + a.Table
			}
			scanBytes = chargeTable(t, 0, t.RowCount())
			scanCount = int64(t.RowCount())
		}
	}
	ji := -1
	for i, c := range cols {
		if c == j.InnerCol.Column {
			ji = i
			break
		}
	}
	if ji < 0 {
		return fmt.Errorf("engine: join column %s missing from %s", j.InnerCol, j.Inner.Table)
	}
	sc.add(j.Inner.Table, cols)
	var jt *joinTable
	if srcKey != "" {
		jt, err = b.hashJoinTable(srcKey, j.InnerCol.Column, rows, ji)
		if err != nil {
			return err
		}
	} else {
		jt = buildJoinTable(rows, ji)
	}
	pb.ops = append(pb.ops, pipeOp{kind: pipeHashJoin, outerPos: outerPos, jt: jt,
		width: sc.width, slot: slot, scanBytes: scanBytes,
		scanCount: scanCount, soughtCount: soughtCount})
	return nil
}

// compileBatchPred builds a boolean row predicate with every column
// position and probe structure resolved at compile time.
func compileBatchPred(b *Built, p *sqlast.Pred, sc *scope) (func([]rel.Value) bool, error) {
	switch p.Kind {
	case sqlast.PredCompare:
		pos, err := sc.pos(p.Col)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) bool {
			return matchCompare(r[pos], p.Op, p.Value)
		}, nil
	case sqlast.PredOr:
		positions, err := colPositions(sc, p.Cols)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) bool {
			for _, pos := range positions {
				if matchCompare(r[pos], p.Op, p.Value) {
					return true
				}
			}
			return false
		}, nil
	case sqlast.PredExists, sqlast.PredOrExists:
		positions, err := colPositions(sc, p.Cols)
		if err != nil {
			return nil, err
		}
		outerPos, err := sc.pos(p.OuterCol)
		if err != nil {
			return nil, err
		}
		set, err := b.existsProbeSet(p)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) bool {
			for _, pos := range positions {
				if matchCompare(r[pos], p.Op, p.Value) {
					return true
				}
			}
			return set.match(r[outerPos])
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compile predicate %s", p)
}

// initPool wires the per-execution state pool: one driver batch (plus,
// for srcChunks drivers, one arena batch of the driver width) and one
// arena batch per join operator, sized to that join's output width.
func (pb *preparedBranch) initPool() {
	widths := make([]int, 0, pb.nJoinSlots)
	for _, op := range pb.ops {
		if op.kind != pipeFilter {
			widths = append(widths, op.width)
		}
	}
	pb.pool.New = func() any {
		st := &branchState{in: rel.NewBatch(0), sel: make([]int32, 0, rel.BatchSize),
			joinOut: make([]*rel.Batch, len(widths))}
		if pb.src.kind == srcChunks {
			st.chunkIn = rel.NewBatch(len(pb.src.table.Columns))
		}
		for i, w := range widths {
			st.joinOut[i] = rel.NewBatch(w)
		}
		return st
	}
}

// run executes one branch serially, returning its projected rows in
// pipeline order. It is the single-worker composition of the three
// phases the morsel executor schedules separately: precharge, driver
// resolution, and the row-range pipeline.
func (pb *preparedBranch) run(ctx context.Context, st *ExecStats) ([][]rel.Value, error) {
	st.Branches++
	pb.precharge(st)
	n, ids := pb.resolveDriver(st)
	return pb.runRange(ctx, st, ids, 0, n)
}

// precharge charges the hash-join build-side scans. The reference
// executor re-fetches every build side once per execution, even when
// the driver produces no rows; charging the same bytes and counters up
// front — once per branch, never per morsel — keeps Stats identical at
// any worker count. The build side's byte charge was computed once at
// prepare time (prepared plans are cached), so this is O(1).
func (pb *preparedBranch) precharge(st *ExecStats) {
	for i := range pb.ops {
		op := &pb.ops[i]
		if op.kind != pipeHashJoin {
			continue
		}
		st.BytesCharged += op.scanBytes
		st.RowsScanned += op.scanCount
		st.RowsSought += op.soughtCount
	}
}

// resolveDriver materializes the branch's driver row set: the number of
// driver rows, plus — for index range seeks — the matching row ids (in
// index order), whose seek cost is charged here, once per branch. Scans
// and partition zips drive straight off their row slices and return nil
// ids.
func (pb *preparedBranch) resolveDriver(st *ExecStats) (int, []int) {
	switch pb.src.kind {
	case srcSeek:
		ids := pb.src.bi.seekRange(pb.src.seekOp, pb.src.seekVal)
		st.RowsSought += int64(len(ids))
		return len(ids), ids
	case srcZip:
		return len(pb.src.zip.rows), nil
	case srcChunks:
		return pb.src.chunks.RowCount(), nil
	default: // srcScan
		return pb.src.table.RowCount(), nil
	}
}

// chunkKernels compiles the driver-stage predicates of a srcChunks
// branch against one resident chunk fragment. The compile is cheap
// (scope positions resolve in a two-level map, EXISTS probe sets come
// from the Built's single-flighted cache) and chunk-local: a string
// range predicate precomputes its match table against the chunk's own
// dictionary. Kernels operate on chunk-local row ids.
func (pb *preparedBranch) chunkKernels(frag *rel.Table) ([]colKernel, error) {
	if len(pb.chunkPreds) == 0 {
		return nil, nil
	}
	ks := make([]colKernel, 0, len(pb.chunkPreds))
	for _, p := range pb.chunkPreds {
		k, err := compileColKernel(pb.built, p, frag, pb.chunkScope)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// morselRanges splits the branch's n driver rows into morsel ranges.
// srcChunks drivers align morsels to chunk boundaries — whole chunks
// accumulate until a morsel reaches morselRows — so each worker faults
// and holds exactly one chunk at a time and two morsels never fault the
// same chunk; every other driver splits on the fixed morselRows stride.
func (pb *preparedBranch) morselRanges(n int) [][2]int {
	var out [][2]int
	if pb.src.kind == srcChunks {
		src := pb.src.chunks
		nc := src.NumChunks()
		lo := 0
		for k := 0; k < nc; {
			hi := lo
			for k < nc && hi-lo < morselRows {
				_, hi = src.ChunkSpan(k)
				k++
			}
			if hi > n {
				hi = n
			}
			if hi > lo {
				out = append(out, [2]int{lo, hi})
			}
			lo = hi
		}
		return out
	}
	for lo := 0; lo < n; lo += morselRows {
		out = append(out, [2]int{lo, min(lo+morselRows, n)})
	}
	return out
}

// runRange pushes driver rows [lo, hi) through the branch pipeline and
// returns the projected rows in pipeline order. Output depends only on
// the driver rows' order — operators keep no state across rows, and
// batch boundaries never split a row's join expansion out of order —
// so concatenating adjacent ranges' outputs equals one big run, which
// is what makes the morsel merge bit-identical to serial execution.
// ctx is polled once per driver batch; on cancellation the pipeline
// stops promptly, pooled state is still returned for reuse, and ctx's
// error is reported.
func (pb *preparedBranch) runRange(ctx context.Context, st *ExecStats, ids []int, lo, hi int) ([][]rel.Value, error) {
	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	state := pb.pool.Get().(*branchState)
	defer pb.pool.Put(state)
	var out [][]rel.Value
	np := len(pb.projs)

	// sink projects a batch's live rows into fresh output rows, one
	// backing arena chunk per batch instead of one allocation per row.
	sink := func(bt *rel.Batch) {
		n := bt.Len()
		if n == 0 {
			return
		}
		arena := make([]rel.Value, n*np)
		k := 0
		for _, si := range bt.Sel {
			r := bt.Rows[si]
			o := arena[k : k+np : k+np]
			for i, pr := range pb.projs {
				if pr.null {
					o[i] = rel.NullOf(rel.TString)
				} else {
					o[i] = r[pr.pos]
				}
			}
			out = append(out, o)
			k += np
		}
	}

	// process pushes a batch through the operators starting at oi.
	var process func(oi int, bt *rel.Batch)
	process = func(oi int, bt *rel.Batch) {
		for ; oi < len(pb.ops); oi++ {
			op := &pb.ops[oi]
			switch op.kind {
			case pipeFilter:
				bt.FilterSel(op.pred)
				if bt.Len() == 0 {
					return
				}
			case pipeHashJoin, pipeINLJoin:
				ob := state.joinOut[op.slot]
				ob.Reset()
				next := oi + 1
				flush := func() {
					if ob.Len() > 0 {
						process(next, ob)
					}
					ob.Reset()
				}
				if op.kind == pipeHashJoin {
					jt := op.jt
					if jt.intKeys {
						for _, si := range bt.Sel {
							orow := bt.Rows[si]
							v := orow[op.outerPos]
							if v.Null || v.Typ != rel.TInt {
								continue
							}
							i, ok := jt.head[v.I]
							for ok && i >= 0 {
								ob.AppendConcat(orow, jt.rows[i])
								if ob.Full() {
									flush()
								}
								i = jt.next[i]
							}
						}
					} else {
						for _, si := range bt.Sel {
							orow := bt.Rows[si]
							v := orow[op.outerPos]
							if v.Null {
								continue
							}
							for _, i := range jt.str[v.String()] {
								ob.AppendConcat(orow, jt.rows[i])
								if ob.Full() {
									flush()
								}
							}
						}
					}
				} else {
					irows := op.innerRows
					for _, si := range bt.Sel {
						orow := bt.Rows[si]
						v := orow[op.outerPos]
						if v.Null {
							continue
						}
						for _, rid := range op.bi.seekEqual(v) {
							st.RowsSought++
							ob.AppendConcat(orow, irows[rid])
							if ob.Full() {
								flush()
							}
						}
					}
				}
				flush()
				return
			}
		}
		sink(bt)
	}

	feed := func(chunk [][]rel.Value) {
		bt := state.in
		bt.Reset()
		for _, r := range chunk {
			bt.AppendRef(r)
		}
		process(0, bt)
	}
	// feedSel materializes the surviving driver rows — after the
	// columnar kernels compacted the selection vector — as references
	// into the generation-cached row view and pushes them through the
	// remaining (join and post-join) operators.
	rows := pb.src.rows
	feedSel := func(sel []int32) {
		for _, k := range pb.kerns {
			sel = k(sel)
			if len(sel) == 0 {
				return
			}
		}
		bt := state.in
		bt.Reset()
		for _, r := range sel {
			bt.AppendRef(rows[r])
		}
		process(0, bt)
	}
	switch pb.src.kind {
	case srcChunks:
		// Chunk-granular scan: fault each overlapping chunk through the
		// source, filter it with chunk-compiled kernels on the column
		// vectors, read only the surviving rows into the state's arena
		// batch, and release the chunk before moving on — the fragment is
		// resident only between Chunk and release, so peak scan memory
		// follows the source's budget, and no row view of the whole chunk
		// is ever built. The arena is reused per batch: sink and
		// AppendConcat copy values out, so nothing downstream keeps a
		// reference to it. Output is bit-identical to the assembled
		// srcScan path: batch boundaries differ but every operator is
		// per-row, chargeTable charges the same per-cell bytes on the
		// fragment's vectors, and RowsScanned sums to the same total.
		src := pb.src.chunks
		nc := src.NumChunks()
		for k := 0; k < nc; k++ {
			clo, chi := src.ChunkSpan(k)
			if chi <= lo {
				continue
			}
			if clo >= hi {
				break
			}
			frag, release, err := src.Chunk(k)
			if err != nil {
				return out, err
			}
			kerns, err := pb.chunkKernels(frag)
			if err != nil {
				release()
				return out, err
			}
			s0, e0 := max(lo, clo), min(hi, chi)
			for start := s0; start < e0; start += rel.BatchSize {
				if cancelled() {
					release()
					return out, ctx.Err()
				}
				end := min(start+rel.BatchSize, e0)
				st.BytesCharged += chargeTable(frag, start-clo, end-clo)
				st.RowsScanned += int64(end - start)
				sel := state.sel[:0]
				for r := start - clo; r < end-clo; r++ {
					sel = append(sel, int32(r))
				}
				for _, kn := range kerns {
					sel = kn(sel)
					if len(sel) == 0 {
						break
					}
				}
				if len(sel) == 0 {
					continue
				}
				bt := state.chunkIn
				bt.Reset()
				for _, r := range sel {
					frag.ReadRowInto(bt.AppendArena(), int(r))
				}
				process(0, bt)
			}
			release()
		}
	case srcSeek:
		for start := lo; start < hi; start += rel.BatchSize {
			if cancelled() {
				return out, ctx.Err()
			}
			end := min(start+rel.BatchSize, hi)
			sel := state.sel[:0]
			for _, id := range ids[start:end] {
				sel = append(sel, int32(id))
			}
			feedSel(sel)
		}
	case srcZip:
		for start := lo; start < hi; start += rel.BatchSize {
			if cancelled() {
				return out, ctx.Err()
			}
			end := min(start+rel.BatchSize, hi)
			st.RowsScanned += int64((end - start) * pb.src.zip.groups)
			feed(rows[start:end])
		}
	default: // srcScan
		t := pb.src.table
		for start := lo; start < hi; start += rel.BatchSize {
			if cancelled() {
				return out, ctx.Err()
			}
			end := min(start+rel.BatchSize, hi)
			// Per-batch scan charge, read straight off the column
			// vectors (see chargeTable).
			st.BytesCharged += chargeTable(t, start, end)
			st.RowsScanned += int64(end - start)
			sel := state.sel[:0]
			for r := start; r < end; r++ {
				sel = append(sel, int32(r))
			}
			feedSel(sel)
		}
	}
	return out, nil
}
