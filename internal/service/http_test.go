package service

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/rel"
)

func TestHTTPRoundTrip(t *testing.T) {
	m, db, built := movieFixture(t, 120)
	want := refResults(t, m, db, serviceQueries)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := NewClient("http://"+srv.Addr, nil)
	ctx := context.Background()

	var charged int64
	for i, qs := range serviceQueries {
		resp, err := cl.Query(ctx, Request{Corpus: "movie", Tenant: "remote", XPath: qs})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		requireSameResult(t, qs, resp, want[i])
		// The scan charge crosses the wire with the other counters.
		if resp.Stats.BytesCharged != want[i].Stats.BytesCharged {
			t.Errorf("query %d: BytesCharged %d over HTTP, reference %d", i, resp.Stats.BytesCharged, want[i].Stats.BytesCharged)
		}
		charged += resp.Stats.BytesCharged
	}
	if charged == 0 {
		t.Error("no query charged any scan bytes; the wire check is vacuous")
	}

	// Admission errors keep their identity across the wire.
	if _, err := cl.Query(ctx, Request{Corpus: "nope", Tenant: "remote", XPath: "//movie/year"}); !errors.Is(err, ErrUnknownCorpus) {
		t.Errorf("unknown corpus over HTTP: got %v", err)
	}

	infos, err := cl.Corpora(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "movie" || infos[0].Rows == 0 {
		t.Errorf("corpora = %+v", infos)
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	cases := []rel.Value{
		rel.Int(42),
		rel.Int(-1),
		rel.NullOf(rel.TInt),
		rel.Str(""),
		rel.Str("héllo\x00world"),
		rel.NullOf(rel.TString),
		rel.Float(3.25),
		rel.Float(math.NaN()),
		rel.Float(math.Inf(1)),
		rel.Float(math.Inf(-1)),
		rel.Float(math.Copysign(0, -1)), // -0.0 must stay distinct from +0.0
		rel.NullOf(rel.TFloat),
	}
	for _, v := range cases {
		got, err := fromWire(toWire(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.BitEqual(v) {
			t.Errorf("round trip %v -> %v: not bit-equal", v, got)
		}
	}
}

func TestErrKindMapping(t *testing.T) {
	for _, sentinel := range []error{ErrOverloaded, ErrDeadline, ErrUnknownCorpus, ErrClosed} {
		status, kind := errKind(sentinel)
		if kind == "" {
			t.Fatalf("%v: no kind", sentinel)
		}
		if back := kindErr(kind, sentinel.Error()); !errors.Is(back, sentinel) {
			t.Errorf("kind %q (status %d) does not invert to %v", kind, status, sentinel)
		}
	}
	// The wrapped DeadlineError maps like its sentinel.
	if _, kind := errKind(wrapDeadline("execute", context.DeadlineExceeded)); kind != "deadline" {
		t.Errorf("DeadlineError kind = %q", kind)
	}
}
