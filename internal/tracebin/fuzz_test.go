package tracebin

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"rmarace/internal/access"
	"rmarace/internal/trace"
)

// FuzzReader feeds arbitrary bytes to the binary decoder: whatever the
// input, the reader must return a descriptive error or a clean EOF —
// never panic, never loop, never allocate past the payload cap. Valid
// prefixes decode; the corpus seeds a well-formed stream so mutations
// explore the record space, not just the header. The same bytes fed
// one at a time take the byte-wise path instead of the in-buffer one,
// and must decode to the same records and the same error.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, trace.Header{Ranks: 4, Window: "w"})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range sampleRecordsF() {
		if err := w.Record(r); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("RMTB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := decodeAll(bytes.NewReader(raw))
		if err != nil && err.Error() == "" {
			t.Fatal("empty error message")
		}
		slow, slowErr := decodeAll(iotest.OneByteReader(bytes.NewReader(raw)))
		if fmt.Sprint(err) != fmt.Sprint(slowErr) || !slices.Equal(recs, slow) {
			t.Fatalf("in-buffer decode: %d records, err %v; byte-wise: %d records, err %v", len(recs), err, len(slow), slowErr)
		}
	})
}

// decodeAll decodes a stream to its end: the records, and nil or the
// first error.
func decodeAll(r io.Reader) ([]trace.Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	for i := 0; i < 1<<16; i++ {
		var rec trace.Record
		if err := tr.Read(&rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// FuzzRoundTrip mutates record fields and asserts binary encode→decode
// is the identity on every encodable record.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), 3, 1, uint64(100), uint64(7), uint64(2), uint64(9), uint64(8), true, false, uint32(5), "a.c", 12, uint8(1))
	f.Fuzz(func(t *testing.T, kindSel uint8, owner, rank int, lo, span, epoch, tm, callTm uint64, stack, filtered bool, stackID uint32, file string, line int, accumOp uint8) {
		var rec trace.Record
		switch kindSel % 3 {
		case 0:
			if owner < 0 || rank < 0 || line < 0 || lo+span < lo {
				return // not encodable; negative ints have no uvarint form
			}
			rec = trace.Record{
				Kind: "access", Owner: owner, Rank: rank,
				Lo: lo, Hi: lo + span, Type: access.Type(accumOp % 5),
				Epoch: epoch, Time: tm, CallTime: callTm,
				Stack: stack, Filtered: filtered, StackID: stackID,
				File: file, Line: line, AccumOp: accumOp,
			}
		case 1:
			if owner < 0 {
				return
			}
			rec = trace.Record{Kind: "epoch_end", Owner: owner}
		default:
			if owner < 0 || rank < 0 {
				return
			}
			rec = trace.Record{Kind: "release", Owner: owner, Rank: rank}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, trace.Header{Ranks: 4, Window: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Record(rec); err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		w.Flush()
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got trace.Record
		if err := r.Read(&got); err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	})
}

// sampleRecordsF mirrors sampleRecords for the fuzz seed (fuzz targets
// cannot call testing.T helpers at seed time).
func sampleRecordsF() []trace.Record {
	return []trace.Record{
		{Kind: "access", Owner: 0, Rank: 1, Lo: 100, Hi: 107, Type: access.RMAWrite, Epoch: 1, Time: 5, CallTime: 3, File: "halo.c", Line: 42},
		{Kind: "release", Owner: 0, Rank: 2},
		{Kind: "epoch_end", Owner: 0},
	}
}
