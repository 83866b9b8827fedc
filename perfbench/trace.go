package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Spans of one request share Req; the
// layer's self time is its duration minus what its children cover.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Req    int64   `json:"request"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer's epoch
	End    float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1e3 }

// tracer keeps spans in memory; they are written as JSON at the end of
// the run. A nil tracer records nothing, so untraced runs share the
// traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request returns a fresh request ID.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

func (t *tracer) at(tm time.Time) float64 { return float64(tm.Sub(t.epoch).Nanoseconds()) / 1e3 }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// reqOf returns the request ID of span id.
func (t *tracer) reqOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Req
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-timed span (one imported from the program's
// own obs tracer).
func (t *tracer) add(req int64, parent int, name string, start, end float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// named returns the closed spans with a name, optionally only those
// starting at or after from (µs since epoch).
func (t *tracer) named(name string, from float64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in ms of named spans since from.
func (t *tracer) durations(name string, from float64) []float64 {
	var out []float64
	for _, s := range t.named(name, from) {
		out = append(out, s.ms())
	}
	return out
}

// selfMS returns each named span's self time in ms: its duration minus
// the union of its children's intervals.
func (t *tracer) selfMS(name string, from float64) []float64 {
	t.mu.Lock()
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	t.mu.Unlock()
	var out []float64
	for _, s := range t.named(name, from) {
		out = append(out, (s.End-s.Start-covered(kids[s.ID], s.Start, s.End))/1e3)
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, cur := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeJSON writes every span to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// obsSpan is the shape obs.Tracer.WriteJSON emits.
type obsSpan struct {
	Name     string     `json:"name"`
	StartUS  float64    `json:"start_us"`
	DurUS    float64    `json:"dur_us"`
	Children []*obsSpan `json:"children"`
}

// obsClock relates an obs.Tracer's epoch to the benchmark tracer's:
// offset is added to an obs start_us to get benchmark µs.
type obsClock struct {
	tr     *obs.Tracer
	offset float64
}

// newObsClock creates an obs tracer and pins its epoch against t's
// with a marker span timed from both sides.
func newObsClock(t *tracer) *obsClock {
	otr := obs.New()
	before := t.at(time.Now())
	m := otr.StartSpan("perfbench.epoch")
	m.End()
	after := t.at(time.Now())
	c := &obsClock{tr: otr}
	for _, s := range c.roots() {
		if s.Name == "perfbench.epoch" {
			c.offset = (before+after)/2 - s.StartUS
		}
	}
	return c
}

// roots parses the obs tracer's span forest.
func (c *obsClock) roots() []*obsSpan {
	var buf bytes.Buffer
	if err := c.tr.WriteJSON(&buf); err != nil {
		return nil
	}
	var doc struct {
		Spans []*obsSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil
	}
	return doc.Spans
}

// importInto adds the obs root spans named in parents that start at or
// after from to t, each under the innermost benchmark span of one of
// the allowed parent names that contains it in time. It is used only
// where requests run one at a time, so containment is unambiguous.
// Spans with no containing parent are skipped.
func (c *obsClock) importInto(t *tracer, from float64, parents map[string][]string) {
	var flat []*obsSpan
	walkObs(c.roots(), func(s *obsSpan) {
		if _, ok := parents[s.Name]; ok {
			flat = append(flat, s)
		}
	})
	// Parents before children: an imported span may parent the next.
	sort.SliceStable(flat, func(i, j int) bool { return flat[i].StartUS < flat[j].StartUS })
	const slack = 5 // µs of clock-alignment error tolerated
	for _, s := range flat {
		start := s.StartUS + c.offset
		end := start + s.DurUS
		if start < from {
			continue
		}
		best := -1
		var bestLen float64
		t.mu.Lock()
		for _, p := range t.spans {
			if p.End < 0 || p.Start > start+slack || p.End < end-slack {
				continue
			}
			ok := false
			for _, n := range parents[s.Name] {
				ok = ok || p.Name == n
			}
			if ok && (best < 0 || p.End-p.Start < bestLen) {
				best, bestLen = p.ID, p.End-p.Start
			}
		}
		req := int64(0)
		if best >= 0 {
			req = t.spans[best].Req
		}
		t.mu.Unlock()
		if best >= 0 {
			t.add(req, best, s.Name, start, end)
		}
	}
}

// walkObs visits every span of an obs forest.
func walkObs(roots []*obsSpan, f func(s *obsSpan)) {
	var walk func(s *obsSpan)
	walk = func(s *obsSpan) {
		f(s)
		for _, k := range s.Children {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
}
