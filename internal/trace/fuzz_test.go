package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// fuzzHeader opens every seed stream.
const fuzzHeader = `{"kind":"header","ranks":4,"window":"w"}` + "\n"

// jsonReaderSeeds are the FuzzJSONReader seed lines: canonical records,
// then every kind of line the canonical scan must hand to the
// encoding/json reference.
var jsonReaderSeeds = []string{
	// Canonical, as Writer emits them.
	`{"kind":"access","owner":2,"rank":1,"lo":16,"hi":23,"type":"rma_accum","epoch":3,"stack":true,"file":"halo.c","line":42,"time":9,"call_time":8,"filtered":true,"accum_op":2,"stack_id":5}`,
	`{"kind":"access","owner":0,"rank":0,"type":"local_read"}`,
	`{"kind":"complete","owner":1,"rank":1,"lo":4,"hi":9}`,
	`{"kind":"epoch_end","owner":3,"rank":0}`,
	`{"kind":"release","owner":0,"rank":2}`,
	`{"kind":"access","owner":-1,"rank":0,"type":"rma_write","accum_op":255,"stack_id":4294967295,"hi":18446744073709551615}`,
	`{"kind":"access","owner":-9223372036854775808,"rank":9223372036854775807,"type":"local_write"}`,
	// Whitespace and escapes.
	`{"kind":"access", "owner":0,"rank":0,"type":"rma_read"}`,
	`{ "kind" : "epoch_end" , "owner" : 1 }`,
	"\t{\"kind\":\"release\",\"owner\":0,\"rank\":1}\r",
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","file":"a\u0041.c"}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","file":"a\\b.c"}`,
	`{"kind":"acc\u0065ss","owner":0,"rank":0,"type":"rma_read"}`,
	// Upper-case and duplicate keys, and null.
	`{"Kind":"access","owner":0,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","OWNER":1,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","owner":0,"owner":1,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","owner":null,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","file":null}`,
	`null`,
	// Overflowing integers.
	`{"kind":"access","owner":0,"rank":0,"type":"rma_accum","accum_op":256}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","stack_id":4294967296}`,
	`{"kind":"access","owner":9223372036854775808,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","owner":-9223372036854775809,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","lo":18446744073709551616}`,
	// Exponents, floats, negative zero and leading zeros.
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","lo":1e3}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","lo":1.0}`,
	`{"kind":"access","owner":-0,"rank":0,"type":"rma_read"}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","lo":-0}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","lo":007}`,
	// Invalid and valid UTF-8, unknown kinds and types, bad shapes.
	"{\"kind\":\"access\",\"owner\":0,\"rank\":0,\"type\":\"rma_read\",\"file\":\"\xff.c\"}",
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","file":"é.c"}`,
	// Control characters (invalid in a JSON string) and DEL (valid).
	"{\"kind\":\"access\",\"owner\":0,\"rank\":0,\"type\":\"rma_read\",\"file\":\"a\tb.c\"}",
	"{\"kind\":\"access\",\"owner\":0,\"rank\":0,\"type\":\"rma_read\",\"file\":\"a\x01b.c\"}",
	"{\"kind\":\"access\",\"owner\":0,\"rank\":0,\"type\":\"rma_read\",\"file\":\"a\x7fb.c\"}",
	`{"kind":"acces","owner":0,"rank":0}`,
	`{"kind":"header","ranks":2}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_wrote"}`,
	`{"kind":"access","owner":0,"rank":0}`,
	`{"kind":"epoch_end","owner":0,"type":"bogus"}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read","stack":"yes"}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read"}}`,
	`{"kind":"access","owner":0,"rank":0,"type":"rma_read",}`,
	`{}`,
	`[1]`,
}

// FuzzJSONReader checks the in-place JSON decode against the
// encoding/json reference: on any input, Reader (at the production
// buffer size, and at the 16-byte minimum, which sends every line
// through the long-line path) and referenceDecode must return the same
// records and then the same error, position included.
func FuzzJSONReader(f *testing.F) {
	f.Add([]byte(fuzzHeader + strings.Join(jsonReaderSeeds[:5], "\n") + "\n"))
	for _, line := range jsonReaderSeeds {
		f.Add([]byte(fuzzHeader + line + "\n"))
	}
	f.Add([]byte(fuzzHeader + "\r\n\n" + jsonReaderSeeds[3] + "\r\n  \n" + jsonReaderSeeds[4]))
	f.Add([]byte(`{"kind":"header"`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantErr := referenceDecode(raw)
		for _, size := range []int{1 << 16, 16} {
			got, err := readAllSize(raw, size)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("buffer %d: %d records, err %v; reference: %d records, err %v\n got %+v\nwant %+v",
					size, len(got), err, len(want), wantErr, got, want)
			}
		}
	})
}

// readAllSize decodes a stream through a Reader with the given buffer
// size: the records, and nil or the first error.
func readAllSize(raw []byte, size int) ([]Record, error) {
	r, err := newReaderSize(bytes.NewReader(raw), size)
	if err != nil {
		return nil, err
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

// referenceDecode decodes a stream as the reader did before the in-place
// path: one ReadBytes per line and encoding/json for every record, with
// the same line and offset bookkeeping and error messages.
func referenceDecode(raw []byte) ([]Record, error) {
	br := bufio.NewReader(bytes.NewReader(raw))
	line, off, read := 0, int64(0), int64(0)
	next := func() ([]byte, error) {
		for {
			off = read
			line++
			b, err := br.ReadBytes('\n')
			read += int64(len(b))
			if b = bytes.TrimSpace(b); len(b) > 0 {
				return b, nil
			}
			if err != nil {
				return nil, err
			}
		}
	}
	b, err := next()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: reading header: unexpected EOF")
	}
	var h Header
	if err == nil {
		err = json.Unmarshal(b, &h)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if h.Kind != "header" {
		return nil, fmt.Errorf("trace: first record is %q, not a header", h.Kind)
	}
	var recs []Record
	for {
		b, err := next()
		if err == io.EOF {
			return recs, nil
		}
		var rec Record
		if err == nil {
			err = UnmarshalRecord(b, &rec)
		}
		if err != nil {
			return recs, fmt.Errorf("trace: line %d (offset %d): %w", line, off, err)
		}
		recs = append(recs, rec)
	}
}
