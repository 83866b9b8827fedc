package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
)

// pager is a memory-budgeted cache of verified chunks, each held as
// the read-only rel.Table that TableFromSnapshot built when the chunk
// faulted: a hit hands out that table as is, with no decode, no
// validation and no allocation beyond the pin's release. Residency is
// accounted in on-disk framed chunk bytes (a stable, deterministic
// proxy for heap cost), and eviction is CLOCK (second-chance): a hit
// sets the entry's reference bit, the clock hand clears bits until it
// finds an unreferenced victim. A budget of zero or less means
// unlimited — nothing is ever evicted, matching the fully-resident
// behavior of earlier formats.
//
// The budget is a cache target, not a hard ceiling: a chunk currently
// being loaded is not yet evictable, so resident + in-flight bytes can
// exceed the budget by one chunk per concurrent loader (the peak field
// tracks the high-water mark so tests can pin exactly that bound).
type pager struct {
	dir    string
	budget int64
	reg    *obs.Registry

	mu       sync.Mutex
	entries  map[chunkKey]*pageEntry
	ring     []*pageEntry // clock order
	hand     int
	resident int64
	inflight int64 // bytes of chunks being loaded right now
	peak     int64 // high-water mark of resident + inflight
}

// chunkKey identifies one chunk of one table. The epoch-unique segment
// file name is part of the key: compaction rewrites a table into a new
// file (t%04d.e%04d.seg), and a load of the old file that completes
// after invalidate must never be served to a post-compaction scan of
// the same table and chunk index — a stale admission lands under the
// dead file's key, where no new reader looks, and the next
// invalidate(table) sweeps it out.
type chunkKey struct {
	table string
	file  string
	idx   int
}

// pageEntry is one cached chunk.
type pageEntry struct {
	key  chunkKey
	tbl  *rel.Table // read-only: shared by every reader of the chunk
	size int64
	ref  bool // CLOCK reference bit
	pins int  // active chunkPinned readers; pinned entries are not evictable
	dead bool // invalidated while pinned; dropped from the ring at the last unpin
}

func newPager(dir string, budget int64, reg *obs.Registry) *pager {
	return &pager{
		dir:     dir,
		budget:  budget,
		reg:     reg,
		entries: make(map[chunkKey]*pageEntry),
	}
}

// chunk returns chunk k of the table described by d, loading it
// through the verification chain (chunk CRC → bounds-checked decode →
// TableFromSnapshot structural validation) on a miss and evicting
// under the budget before admitting it. The table is shared with every
// other reader of the chunk and must not be modified.
func (p *pager) chunk(file string, d *chunkedDir, k int) (*rel.Table, error) {
	tbl, release, err := p.acquire(file, d, k, false)
	if err != nil {
		return nil, err
	}
	release()
	return tbl, nil
}

// chunkPinned is chunk with the entry pinned against eviction until the
// returned release is called. Scans hold exactly one pin per worker, so
// the budget overshoot stays bounded to one chunk per worker even when
// every other entry is evictable.
func (p *pager) chunkPinned(file string, d *chunkedDir, k int) (*rel.Table, func(), error) {
	return p.acquire(file, d, k, true)
}

// acquire serves one chunk, pinning its cache entry when pin is set.
// Every call increments exactly one of storage.pager.hits or
// storage.pager.faults: a fault is an admission; a load raced out by a
// concurrent admission counts as a hit plus storage.pager.dup_loads
// (the wasted read keeps bytes_read honest without double-counting
// admissions).
func (p *pager) acquire(file string, d *chunkedDir, k int, pin bool) (*rel.Table, func(), error) {
	key := chunkKey{table: d.Name, file: file, idx: k}
	ref := &d.Chunks[k]
	p.mu.Lock()
	if e, ok := p.entries[key]; ok {
		e.ref = true
		unpin := p.pinLocked(e, pin)
		p.mu.Unlock()
		p.reg.Counter("storage.pager.hits").Inc()
		return e.tbl, unpin, nil
	}
	p.inflight += ref.Size
	if hw := p.resident + p.inflight; hw > p.peak {
		p.peak = hw
	}
	p.mu.Unlock()

	tbl, err := p.load(file, d, k)

	p.mu.Lock()
	p.inflight -= ref.Size
	if err != nil {
		p.mu.Unlock()
		return nil, nil, err
	}
	if e, ok := p.entries[key]; ok {
		// Another loader admitted the same chunk while we read it;
		// serve the cached copy.
		e.ref = true
		unpin := p.pinLocked(e, pin)
		p.mu.Unlock()
		p.reg.Counter("storage.pager.hits").Inc()
		p.reg.Counter("storage.pager.dup_loads").Inc()
		return e.tbl, unpin, nil
	}
	p.evictFor(ref.Size)
	e := &pageEntry{key: key, tbl: tbl, size: ref.Size, ref: true}
	p.entries[key] = e
	p.ring = append(p.ring, e)
	p.resident += e.size
	if hw := p.resident + p.inflight; hw > p.peak {
		p.peak = hw
	}
	unpin := p.pinLocked(e, pin)
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
	p.mu.Unlock()
	p.reg.Counter("storage.pager.faults").Inc()
	return tbl, unpin, nil
}

// pinLocked takes a pin on e (when pin is set) and returns the matching
// idempotent release. Caller holds p.mu. The last unpin of an entry
// invalidate marked dead drops it from the ring and the accounting —
// until then its bytes stay resident (the reader still holds the
// table), so the gauge and peak reflect actual residency.
func (p *pager) pinLocked(e *pageEntry, pin bool) func() {
	if !pin {
		return func() {}
	}
	e.pins++
	released := false
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if released {
			return
		}
		released = true
		e.pins--
		if e.dead && e.pins == 0 {
			p.dropDeadLocked(e)
		}
	}
}

// dropDeadLocked removes a dead (invalidated-while-pinned) entry from
// the ring and the residency accounting. Caller holds p.mu. The entry
// left the entries map at invalidate time — a fresh admission may own
// that key by now — so removal is by ring identity, never by key.
func (p *pager) dropDeadLocked(e *pageEntry) {
	for i, r := range p.ring {
		if r == e {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if i < p.hand {
				p.hand--
			}
			break
		}
	}
	p.resident -= e.size
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
}

// load reads and validates one chunk from disk (no cache interaction).
func (p *pager) load(file string, d *chunkedDir, k int) (*rel.Table, error) {
	ref := &d.Chunks[k]
	f, err := os.Open(filepath.Join(p.dir, file))
	if err != nil {
		return nil, fmt.Errorf("storage: reading chunk %d of %s: %w", k, d.Name, err)
	}
	defer f.Close()
	blob := make([]byte, ref.Size)
	if _, err := f.ReadAt(blob, ref.Off); err != nil {
		p.reg.Counter("storage.checksum.failures").Inc()
		return nil, fmt.Errorf("storage: reading chunk %d of %s at offset %d: %w", k, d.Name, ref.Off, err)
	}
	tbl, err := d.decodeChunk(k, blob)
	if err != nil {
		p.reg.Counter("storage.checksum.failures").Inc()
		return nil, err
	}
	p.reg.Counter("storage.segment.bytes_read").Add(ref.Size)
	return tbl, nil
}

// evictFor makes room for need bytes under the budget. Caller holds
// p.mu. The scan is bounded: one full sweep clears every reference
// bit, a second finds a victim, so 2·len+1 steps always suffice (a
// ring of only pinned entries simply runs the bound out and admits
// over budget — the peak tracking records exactly that overshoot).
func (p *pager) evictFor(need int64) {
	if p.budget <= 0 {
		return
	}
	evictions := p.reg.Counter("storage.pager.evictions")
	for steps := 2*len(p.ring) + 1; steps > 0 && p.resident+need > p.budget && len(p.ring) > 0; steps-- {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		e := p.ring[p.hand]
		if e.pins > 0 {
			p.hand++
			continue
		}
		if e.ref {
			e.ref = false
			p.hand++
			continue
		}
		p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
		delete(p.entries, e.key)
		p.resident -= e.size
		evictions.Inc()
	}
}

// invalidate drops every cached chunk of a table (compaction rewrote
// its segment, so cached chunks describe a dead file). An entry a scan
// worker still holds pinned cannot leave memory yet: it is unmapped (no
// future hit can reach it) but marked dead and kept in the ring with
// its bytes accounted until the last unpin drops it, so resident_bytes
// and the peak high-water mark track actual residency. The clock hand
// is re-indexed against the surviving ring rather than reset: a reset
// would hand every surviving early-ring entry a fresh second chance
// after each compaction and skew eviction toward late-ring entries.
func (p *pager) invalidate(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	keep := p.ring[:0]
	hand := p.hand
	for i, e := range p.ring {
		if e.key.table == table {
			delete(p.entries, e.key)
			if e.pins > 0 {
				e.dead = true
				e.ref = false
				keep = append(keep, e)
				continue
			}
			if i < p.hand {
				hand--
			}
			p.resident -= e.size
			continue
		}
		keep = append(keep, e)
	}
	p.ring = keep
	if hand < 0 || hand > len(keep) {
		hand = 0
	}
	p.hand = hand
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
}

// residentBytes reports the current cache residency (for summaries).
func (p *pager) residentBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// peakBytes reports the high-water mark of resident + in-flight bytes;
// tests pin it to budget + one chunk per concurrent loader.
func (p *pager) peakBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}
