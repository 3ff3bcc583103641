package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
)

func sampleEvent(lo, hi uint64, tp access.Type, rank int) detector.Event {
	return detector.Event{
		Acc: access.Access{
			Interval: interval.New(lo, hi),
			Type:     tp,
			Rank:     rank,
			Epoch:    3,
			Stack:    true,
			Debug:    access.Debug{File: "x.c", Line: 42},
		},
		Time:     7,
		CallTime: 7,
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 4, Window: "X"})
	if err != nil {
		t.Fatal(err)
	}
	ev := sampleEvent(2, 12, access.RMARead, 1)
	if err := w.Record(AccessRecord(2, ev)); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(Record{Kind: KindEpochEnd, Owner: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header.Ranks != 4 || r.Header.Window != "X" {
		t.Fatalf("header = %+v", r.Header)
	}
	var rec Record
	if err := r.Read(&rec); err != nil {
		t.Fatal(err)
	}
	got, err := rec.Event()
	if err != nil {
		t.Fatal(err)
	}
	// Event now carries an (uncomparable) vector-clock slice; traces
	// never serialise it, so compare with it stripped.
	if got.Clock != nil {
		t.Fatalf("replayed event carries a clock: %+v", got)
	}
	ev.Clock = nil
	if got.Acc != ev.Acc || got.Time != ev.Time || got.CallTime != ev.CallTime || got.Filtered != ev.Filtered {
		t.Fatalf("round trip: got %+v, want %+v", got, ev)
	}
	err = r.Read(&rec)
	if err != nil || rec.Kind != "epoch_end" || rec.Owner != 1 {
		t.Fatalf("epoch record = %+v, err %v", rec, err)
	}
	if err := r.Read(&rec); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsMissingHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader(`{"kind":"access"}`)); err == nil {
		t.Fatal("missing header accepted")
	}
}

func TestEventValidation(t *testing.T) {
	if _, err := (Record{Kind: "epoch_end"}).Event(); err == nil {
		t.Fatal("non-access record converted")
	}
	if _, err := (Record{Kind: "access", Type: access.Type(9), Hi: 1}).Event(); err == nil {
		t.Fatal("bogus type accepted")
	}
	if _, err := (Record{Kind: "access", Type: access.RMARead, Lo: 5, Hi: 2}).Event(); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestGenerateSafeReplaysClean(t *testing.T) {
	var buf bytes.Buffer
	n, err := Generate(&buf, GenConfig{
		Ranks: 4, Events: 2000, Epochs: 3,
		Adjacency: 0.5, WriteFraction: 0.5, SafeOnly: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6000 {
		t.Fatalf("generated %d events", n)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(r, func(int) detector.Analyzer { return core.New() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Race != nil {
		t.Fatalf("safe trace raced: %v", res.Race)
	}
	if res.Events != 6000 || res.Epochs != 3 {
		t.Fatalf("replay stats %+v", res)
	}
	if res.MaxNodes <= 0 {
		t.Fatal("no nodes recorded")
	}
}

func TestGenerateAdjacencyAffectsMerging(t *testing.T) {
	replayNodes := func(adjacency float64) int {
		var buf bytes.Buffer
		if _, err := Generate(&buf, GenConfig{
			Ranks: 2, Events: 4000, Epochs: 1,
			Adjacency: adjacency, WriteFraction: 0.3, SafeOnly: true, Seed: 5,
		}); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(r, func(int) detector.Analyzer { return core.New() })
		if err != nil {
			t.Fatal(err)
		}
		if res.Race != nil {
			t.Fatalf("race in safe trace: %v", res.Race)
		}
		return res.MaxNodes
	}
	high := replayNodes(0.95)
	low := replayNodes(0.05)
	if high >= low {
		t.Fatalf("adjacency should shrink the tree: adjacency .95 -> %d nodes, .05 -> %d", high, low)
	}
}

func TestReplayStopsAtRace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 2, Window: "X"})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Record(AccessRecord(0, sampleEvent(0, 7, access.RMAWrite, 0)))
	_ = w.Record(AccessRecord(0, sampleEvent(0, 7, access.RMAWrite, 1)))
	_ = w.Record(AccessRecord(0, sampleEvent(100, 107, access.RMAWrite, 0))) // never reached
	_ = w.Flush()

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(r, func(int) detector.Analyzer { return core.New() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Race == nil {
		t.Fatal("race not detected")
	}
	if res.Events != 2 {
		t.Fatalf("replay did not stop at the race: %d events", res.Events)
	}
}

func TestReplayPerRankAnalyzers(t *testing.T) {
	// Owner-private analyzers: records with different owners go to
	// different trees, so equal-address accesses of two owners do not
	// interact.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Ranks: 2, Window: "X"})
	_ = w.Record(AccessRecord(0, sampleEvent(0, 7, access.LocalWrite, 0)))
	_ = w.Record(AccessRecord(1, sampleEvent(0, 7, access.LocalWrite, 1)))
	_ = w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	res, err := Replay(r, func(int) detector.Analyzer { count++; return core.New() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Race != nil {
		t.Fatalf("per-rank replay raced: %v", res.Race)
	}
	if count != 2 {
		t.Fatalf("expected 2 analyzers, got %d", count)
	}
}

// TestJSONWireFormat pins the JSON Lines encoding byte for byte: typed
// records render with the names, key order and omissions the format
// always had, and decode back to the same records.
func TestJSONWireFormat(t *testing.T) {
	const want = `{"kind":"header","ranks":4,"window":"halo"}
{"kind":"access","owner":2,"rank":1,"lo":16,"hi":23,"type":"rma_accum","epoch":3,"stack":true,"file":"halo.c","line":42,"time":9,"call_time":8,"filtered":true,"accum_op":2,"stack_id":5}
{"kind":"access","owner":0,"rank":0,"type":"local_read"}
{"kind":"complete","owner":1,"rank":1,"lo":4,"hi":9}
{"kind":"epoch_end","owner":3,"rank":0}
{"kind":"release","owner":0,"rank":2}
`
	recs := []Record{
		{Kind: KindAccess, Owner: 2, Rank: 1, Lo: 16, Hi: 23, Type: access.RMAAccum, Epoch: 3, Stack: true,
			File: "halo.c", Line: 42, Time: 9, CallTime: 8, Filtered: true, AccumOp: 2, StackID: 5},
		{Kind: KindAccess, Type: access.LocalRead},
		{Kind: KindComplete, Owner: 1, Rank: 1, Lo: 4, Hi: 9},
		{Kind: KindEpochEnd, Owner: 3},
		{Kind: KindRelease, Owner: 0, Rank: 2},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 4, Window: "halo"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if buf.String() != want {
		t.Fatalf("JSON encoding drifted:\n got %s\nwant %s", buf.String(), want)
	}
	r, err := NewReader(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		var got Record
		if err := r.Read(&got); err != nil || got != rec {
			t.Fatalf("record %d = %+v (err %v), want %+v", i, got, err, rec)
		}
	}
	if err := w.Record(Record{Kind: KindAccess, Type: access.Type(9)}); err == nil {
		t.Fatal("writer encoded an undefined access type")
	}
}

func TestBadAccessTypeCarriesLine(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"kind":"access","owner":0,"rank":0,"lo":0,"hi":7,"type":"rma_wrote"}`, `unknown access type "rma_wrote"`},
		{`{"kind":"access","owner":0,"rank":0,"lo":0,"hi":7}`, `unknown access type ""`},
	} {
		raw := `{"kind":"header","ranks":2,"window":"w"}
{"kind":"epoch_end","owner":0}
` + tc.line + "\n"
		r, err := NewReader(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		if err := r.Read(&rec); err != nil {
			t.Fatal(err)
		}
		err = r.Read(&rec)
		if err == nil || !strings.Contains(err.Error(), "line 3 (offset ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want line 3 and %q", tc.line, err, tc.want)
		}
	}
}

// readAll decodes every record of a JSON stream: the records, and nil or
// the first error.
func readAll(t *testing.T, raw string) ([]Record, error) {
	t.Helper()
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		var rec Record
		if err := r.Read(&rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// TestReaderLongLine: a line longer than the 64 KiB buffer takes the
// copying path, decodes whole, and keeps later lines' positions exact.
func TestReaderLongLine(t *testing.T) {
	const head = `{"kind":"header","ranks":2,"window":"w"}` + "\n"
	file := strings.Repeat("f", 70_000)
	long := `{"kind":"access","owner":1,"rank":0,"lo":8,"hi":15,"type":"rma_write","file":"` + file + `","line":3}` + "\n"
	spaced := `{"kind":"access", "owner":0,"rank":1,"type":"rma_read","file":"` + file + `"}` + "\n"
	bad := `{"kind":"access","owner":0,"rank":0,"type":"rma_wrote"}` + "\n"
	recs, err := readAll(t, head+long+spaced+bad)
	want := []Record{
		{Kind: KindAccess, Owner: 1, Lo: 8, Hi: 15, Type: access.RMAWrite, File: file, Line: 3},
		{Kind: KindAccess, Rank: 1, Type: access.RMARead, File: file},
	}
	if !slices.Equal(recs, want) {
		t.Fatalf("long lines decoded to %d records, want the %d expected", len(recs), len(want))
	}
	pos := fmt.Sprintf("line 4 (offset %d)", len(head)+len(long)+len(spaced))
	if err == nil || !strings.Contains(err.Error(), pos) || !strings.Contains(err.Error(), `unknown access type "rma_wrote"`) {
		t.Fatalf("error after long lines = %v, want %s", err, pos)
	}
}

// TestReaderLineEndings: CRLF endings, blank and whitespace-only lines
// and a final line without a newline all decode, and blank lines count
// toward the reported line number.
func TestReaderLineEndings(t *testing.T) {
	raw := "{\"kind\":\"header\",\"ranks\":2,\"window\":\"w\"}\r\n" +
		"\r\n" +
		"{\"kind\":\"access\",\"owner\":0,\"rank\":1,\"type\":\"local_write\"}\r\n" +
		"  \t\n" +
		"\n" +
		"{\"kind\":\"epoch_end\",\"owner\":1,\"rank\":0}"
	recs, err := readAll(t, raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Kind: KindAccess, Rank: 1, Type: access.LocalWrite}, {Kind: KindEpochEnd, Owner: 1}}
	if !slices.Equal(recs, want) {
		t.Fatalf("records %+v, want %+v", recs, want)
	}
	bad := strings.TrimSuffix(raw, `}`)
	if _, err := readAll(t, bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line 6 (offset %d)", strings.LastIndexByte(raw, '\n')+1)) {
		t.Fatalf("truncated final line: error %v, want line 6", err)
	}
}

// TestReaderMalformedAfterCanonical: a malformed line after many
// canonical ones (several buffer refills) keeps its line and offset.
func TestReaderMalformedAfterCanonical(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 4, Window: "w"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	for i := 0; i < n; i++ {
		ev := sampleEvent(uint64(i*8), uint64(i*8+7), access.RMAWrite, i%4)
		if err := w.Record(AccessRecord(i%4, ev)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	off := buf.Len()
	buf.WriteString(`{"kind":"access","owner":0,"rank":0,"lo":1.5,"type":"rma_read"}` + "\n")
	recs, err := readAll(t, buf.String())
	if len(recs) != n {
		t.Fatalf("decoded %d records before the bad line, want %d", len(recs), n)
	}
	pos := fmt.Sprintf("trace: line %d (offset %d): ", n+2, off)
	if err == nil || !strings.HasPrefix(err.Error(), pos) {
		t.Fatalf("error %v, want prefix %q", err, pos)
	}
}

// TestReaderSteadyStateAllocs pins the canonical decode allocation-free:
// once the reader has seen a record's file name, reading a Writer-shaped
// record allocates nothing.
func TestReaderSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 8, Window: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		rec := AccessRecord(i%4, sampleEvent(uint64(i*8), uint64(i*8+7), access.Type(i%5), i%8))
		rec.AccumOp, rec.StackID, rec.Filtered = uint8(i), uint32(i), i%3 == 0
		if err := w.Record(rec); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			if err := w.Record(Record{Kind: KindEpochEnd, Owner: i % 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.Read(&rec); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(400, func() {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("Read: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Read allocates %.2f objects/op, want 0", avg)
	}
}
