// Package trace records and replays streams of instrumented memory
// accesses. Traces decouple workload generation from analysis: the
// rmarace CLI can capture a simulated application's accesses once and
// replay them under every detector, which is also how the deterministic
// detector benchmarks are fed.
//
// Two wire formats carry the same typed Record. The original format is
// JSON Lines: one record per line, self-describing and diff-friendly,
// with a Header line (kind "header") opening the stream; access types
// have names only there. Package internal/tracebin adds a
// length-prefixed varint binary format for multi-million-event traces;
// both implement the Source interface, and Replay consumes either as a
// bounded-memory stream.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"rmarace/internal/access"
	"rmarace/internal/depot"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs/span"
)

// Header opens a trace stream.
type Header struct {
	Kind string `json:"kind"` // always "header"
	// Ranks is the world size of the traced run.
	Ranks int `json:"ranks"`
	// Window names the traced window.
	Window string `json:"window"`
}

// Kind names a record's kind. It is string-kinded so the JSON format
// carries it verbatim.
type Kind string

// Record kinds.
const (
	KindAccess   Kind = "access"
	KindEpochEnd Kind = "epoch_end"
	KindRelease  Kind = "release"
	// KindComplete retires Rank's request-based accesses to [Lo, Hi] at
	// Owner's analyzer (an MPI_Wait on their requests).
	KindComplete Kind = "complete"
)

// Record is one traced event: an access, an epoch boundary, a release
// (an exclusive MPI_Win_unlock retiring Rank's accesses at Owner's
// analyzer) or a request completion. Records are typed: an access type
// has a name only in JSON (wireRecord), and the binary codec decodes
// straight into these fields.
type Record struct {
	Kind Kind
	// Owner is the rank whose per-window analyzer processes the record
	// (the window owner); Rank is the rank that issued the access (for
	// kind "release", the rank whose accesses are retired).
	Owner int
	Rank  int
	// Access fields (kind "access"; Lo and Hi also for "complete").
	Lo       uint64
	Hi       uint64
	Type     access.Type
	Epoch    uint64
	Stack    bool
	File     string
	Line     int
	Time     uint64
	CallTime uint64
	Filtered bool
	AccumOp  uint8
	// StackID is the access's interned call-stack id in the process-wide
	// stack depot (package depot), when the traced run captured stacks.
	// Depot ids are process-local: a replay resolves them only against
	// the depot of the capturing process, so cross-process replays treat
	// the id as an opaque site label.
	StackID uint32
}

// wireRecord is a Record's JSON Lines shape, the only place an access
// type is named. Type is set on access records only.
type wireRecord struct {
	Kind     Kind   `json:"kind"`
	Owner    int    `json:"owner"`
	Rank     int    `json:"rank"`
	Lo       uint64 `json:"lo,omitempty"`
	Hi       uint64 `json:"hi,omitempty"`
	Type     string `json:"type,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Stack    bool   `json:"stack,omitempty"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Time     uint64 `json:"time,omitempty"`
	CallTime uint64 `json:"call_time,omitempty"`
	Filtered bool   `json:"filtered,omitempty"`
	AccumOp  uint8  `json:"accum_op,omitempty"`
	StackID  uint32 `json:"stack_id,omitempty"`
}

// typeWireNames are the access types' wire names, indexed by type.
var typeWireNames = [...]string{
	access.LocalRead:  "local_read",
	access.LocalWrite: "local_write",
	access.RMARead:    "rma_read",
	access.RMAWrite:   "rma_write",
	access.RMAAccum:   "rma_accum",
}

// Sink is the record-writing side shared by both wire formats: the JSON
// Writer here and the binary tracebin.Writer. Generators (Generate, the
// fuzzer's reproducer writer, rmarace convert) target the interface so
// they can emit either format.
type Sink interface {
	// Record appends one record (AccessRecord builds an access's).
	Record(rec Record) error
	// Flush flushes buffered output.
	Flush() error
}

// Writer serialises events to a JSON Lines stream.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter writes a trace with the given header to w.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h.Kind = "header"
	if err := enc.Encode(h); err != nil {
		return nil, err
	}
	return &Writer{w: bw, enc: enc}, nil
}

// AccessRecord builds the record of one access event analysed by
// owner's tree.
func AccessRecord(owner int, ev detector.Event) Record {
	return Record{
		Kind:     KindAccess,
		Owner:    owner,
		Rank:     ev.Acc.Rank,
		Lo:       ev.Acc.Lo,
		Hi:       ev.Acc.Hi,
		Type:     ev.Acc.Type,
		Epoch:    ev.Acc.Epoch,
		Stack:    ev.Acc.Stack,
		File:     ev.Acc.Debug.File,
		Line:     ev.Acc.Debug.Line,
		Time:     ev.Time,
		CallTime: ev.CallTime,
		Filtered: ev.Filtered,
		AccumOp:  uint8(ev.Acc.AccumOp),
		StackID:  uint32(ev.Acc.StackID),
	}
}

// Record appends a pre-built record verbatim (the fuzzer's reproducer
// writer streams rendered records through this).
func (t *Writer) Record(rec Record) error {
	w := wireRecord{
		Kind: rec.Kind, Owner: rec.Owner, Rank: rec.Rank, Lo: rec.Lo, Hi: rec.Hi,
		Epoch: rec.Epoch, Stack: rec.Stack, File: rec.File, Line: rec.Line,
		Time: rec.Time, CallTime: rec.CallTime, Filtered: rec.Filtered,
		AccumOp: rec.AccumOp, StackID: rec.StackID,
	}
	if rec.Kind == KindAccess {
		if !rec.Type.Valid() {
			return fmt.Errorf("trace: unknown access type %v", rec.Type)
		}
		w.Type = typeWireNames[rec.Type]
	}
	return t.enc.Encode(&w)
}

// Flush flushes buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

var _ Sink = (*Writer)(nil)

// Source is the streaming side shared by both wire formats: a trace
// header plus a cursor over its records. Read fills the caller's record
// in place so a replay loop runs on one reusable buffer; Pos locates
// the last-read record for error reports, and BytesRead feeds the
// ingest throughput metrics.
type Source interface {
	// Head returns the stream's header.
	Head() Header
	// Read decodes the next record into rec, returning io.EOF at the
	// end of the stream. Decode errors carry the record's position
	// (line or byte offset) in their message.
	Read(rec *Record) error
	// Pos describes the position of the record Read returned last
	// ("line 42", "record 17 (offset 1289)"), for error context.
	Pos() string
	// BytesRead returns how many input bytes have been consumed.
	BytesRead() int64
}

// Reader deserialises a JSON Lines trace stream. It reads line by line,
// so decode errors report the 1-based line (the header is line 1) and
// byte offset of the malformed record.
//
// Each line is decoded in place from the bufio buffer. A line in the
// canonical shape Writer emits takes the allocation-free scan of
// decodeCanonical; every other line goes to UnmarshalRecord, the
// encoding/json reference, so the accepted language and the error
// messages are exactly encoding/json's.
type Reader struct {
	r      *bufio.Reader
	Header Header
	long   []byte // assembles a line longer than the buffer
	file   string // last File the canonical scan decoded, reused while equal
	line   int    // line number of the last record returned
	off    int64  // byte offset where the last record started
	read   int64  // total bytes consumed
}

// NewReader opens a JSON trace stream and reads its header.
func NewReader(r io.Reader) (*Reader, error) {
	return newReaderSize(r, 1<<16)
}

// newReaderSize is NewReader with a bufio buffer of the given size; the
// tests shrink it to send every line through longLine.
func newReaderSize(r io.Reader, size int) (*Reader, error) {
	tr := &Reader{r: bufio.NewReaderSize(r, size)}
	raw, err := tr.nextLine()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: reading header: unexpected EOF")
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if err := json.Unmarshal(raw, &tr.Header); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if tr.Header.Kind != "header" {
		return nil, fmt.Errorf("trace: first record is %q, not a header", tr.Header.Kind)
	}
	return tr, nil
}

// nextLine returns the next non-empty line, tracking position. The
// slice aliases the bufio buffer (or r.long), so it is valid until the
// next read.
func (r *Reader) nextLine() ([]byte, error) {
	for {
		r.off = r.read
		r.line++
		raw, err := r.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			raw, err = r.longLine(raw)
		}
		r.read += int64(len(raw))
		raw = bytes.TrimSpace(raw)
		if len(raw) > 0 {
			// A final line without a newline still decodes; a read error
			// after a partial line surfaces on the next call.
			return raw, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// longLine copies a line that overflows the bufio buffer, starting with
// its first buffer-full fragment, into r.long.
func (r *Reader) longLine(frag []byte) ([]byte, error) {
	r.long = append(r.long[:0], frag...)
	for {
		frag, err := r.r.ReadSlice('\n')
		r.long = append(r.long, frag...)
		if err != bufio.ErrBufferFull {
			return r.long, err
		}
	}
}

// Head implements Source.
func (r *Reader) Head() Header { return r.Header }

// Read implements Source: it decodes the next record into rec, or
// returns io.EOF.
func (r *Reader) Read(rec *Record) error {
	raw, err := r.nextLine()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: line %d (offset %d): %w", r.line, r.off, err)
	}
	if r.decodeCanonical(raw, rec) {
		return nil
	}
	if err := UnmarshalRecord(raw, rec); err != nil {
		return fmt.Errorf("trace: line %d (offset %d): %w", r.line, r.off, err)
	}
	return nil
}

// UnmarshalRecord decodes one JSON Lines record with encoding/json. It
// is the reference definition of the format's accepted language:
// Reader.Read defers to it for every line outside the canonical shape,
// and the fuzz target and the ingest benchmark compare against it.
func UnmarshalRecord(line []byte, rec *Record) error {
	var w wireRecord
	err := json.Unmarshal(line, &w)
	*rec = Record{
		Kind: w.Kind, Owner: w.Owner, Rank: w.Rank, Lo: w.Lo, Hi: w.Hi,
		Epoch: w.Epoch, Stack: w.Stack, File: w.File, Line: w.Line,
		Time: w.Time, CallTime: w.CallTime, Filtered: w.Filtered,
		AccumOp: w.AccumOp, StackID: w.StackID,
	}
	if err == nil && rec.Kind == KindAccess {
		var ok bool
		if rec.Type, ok = wireType([]byte(w.Type)); !ok {
			err = fmt.Errorf("unknown access type %q", w.Type)
		}
	}
	return err
}

// Pos implements Source.
func (r *Reader) Pos() string { return fmt.Sprintf("line %d (offset %d)", r.line, r.off) }

// BytesRead implements Source.
func (r *Reader) BytesRead() int64 { return r.read }

var _ Source = (*Reader)(nil)

// Event converts an access record back to a detector event.
func (rec Record) Event() (detector.Event, error) {
	var ev detector.Event
	err := rec.fill(&ev)
	return ev, err
}

// fill writes an access record into *ev field by field, so the replay
// loop builds events in pooled batch slots without a temporary. It
// leaves ev.Clock, which records do not carry, as it is.
func (rec *Record) fill(ev *detector.Event) error {
	if rec.Kind != KindAccess {
		return fmt.Errorf("trace: record kind %q is not an access", rec.Kind)
	}
	if !rec.Type.Valid() {
		return fmt.Errorf("trace: unknown access type %v", rec.Type)
	}
	if rec.Hi < rec.Lo {
		return fmt.Errorf("trace: inverted interval [%d, %d]", rec.Lo, rec.Hi)
	}
	a := &ev.Acc
	a.Interval = interval.Interval{Lo: rec.Lo, Hi: rec.Hi}
	a.Rank = rec.Rank
	a.Epoch = rec.Epoch
	a.StackID = depot.ID(rec.StackID)
	a.Type = rec.Type
	a.Stack = rec.Stack
	a.AccumOp = access.AccumOp(rec.AccumOp)
	a.Debug = access.Debug{File: rec.File, Line: rec.Line}
	ev.Time = rec.Time
	ev.CallTime = rec.CallTime
	ev.Filtered = rec.Filtered
	return nil
}

// replaySpanKind maps a replayed access type to its span kind.
func replaySpanKind(t access.Type) span.Kind {
	switch t {
	case access.RMAWrite:
		return span.KindPut
	case access.RMARead:
		return span.KindGet
	case access.RMAAccum:
		return span.KindAccum
	}
	return span.KindLocal
}
