// Package tracebin is the binary wire format of package trace: a
// length-prefixed, varint-encoded, append-only record stream built for
// multi-million-event traces where the JSON Lines format's parse cost
// and size dominate ingest.
//
// Layout:
//
//	header   := magic "RMTB" | version u8 | ranks uvarint
//	            | len(window) uvarint | window bytes
//	stream   := header record*
//	record   := len(payload) uvarint | payload
//	payload  := kind u8 | body
//
//	access   := flags u8 | owner uvarint | rank uvarint
//	            | lo uvarint | hi-lo uvarint | type u8
//	            | epoch uvarint | time uvarint | call_time uvarint
//	            | accum_op u8 | stack_id uvarint
//	            | file_id uvarint | line uvarint
//	epochEnd := owner uvarint
//	release  := owner uvarint | rank uvarint
//	fileDef  := id uvarint | len(name) uvarint | name bytes
//	complete := owner uvarint | rank uvarint
//	            | lo uvarint | hi-lo uvarint
//
// File names are interned in a string table: the first access citing a
// file is preceded by a fileDef record assigning it the next id (ids
// start at 1; 0 means "no file"), and every later access cites the id.
// The access flags byte packs the two booleans (bit 0 Stack, bit 1
// Filtered). All uvarints are unsigned LEB128 (encoding/binary); the
// interval's upper bound is delta-encoded against the lower, so the
// short per-element accesses that dominate real traces stay one byte.
//
// The type byte is the access.Type plus one (0 is reserved). The Reader
// decodes a buffered record in place from the bufio buffer straight
// into a typed trace.Record, allocating nothing at steady state. Both
// Reader and Writer implement trace.Source / trace.Sink, so replay,
// generation and conversion code is format-agnostic; Open sniffs the
// magic and returns the right Source for either format.
package tracebin

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"rmarace/internal/access"
	"rmarace/internal/trace"
)

// Magic opens every binary trace stream.
var Magic = [4]byte{'R', 'M', 'T', 'B'}

// Version is the current wire version byte.
const Version = 1

// Record kind bytes.
const (
	kindAccess   = 0
	kindEpochEnd = 1
	kindRelease  = 2
	kindFileDef  = 3
	kindComplete = 4
)

// maxPayload caps one record's payload so a corrupt length prefix
// cannot force a huge allocation; real records are tens of bytes, and
// the largest legitimate payload is a fileDef carrying a path.
const maxPayload = 1 << 20

// Access flag bits.
const (
	flagStack    = 1 << 0
	flagFiltered = 1 << 1
)

// Writer serialises records to the binary stream. It implements
// trace.Sink.
type Writer struct {
	w       *bufio.Writer
	files   map[string]uint64
	scratch []byte // payload assembly buffer, reused across records
	lenBuf  [binary.MaxVarintLen64]byte
}

// NewWriter writes a binary trace with the given header to w.
func NewWriter(w io.Writer, h trace.Header) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(Version); err != nil {
		return nil, err
	}
	t := &Writer{w: bw, files: make(map[string]uint64)}
	t.scratch = binary.AppendUvarint(t.scratch[:0], uint64(h.Ranks))
	t.scratch = binary.AppendUvarint(t.scratch, uint64(len(h.Window)))
	t.scratch = append(t.scratch, h.Window...)
	if _, err := bw.Write(t.scratch); err != nil {
		return nil, err
	}
	return t, nil
}

// writeRecord emits one length-prefixed payload.
func (t *Writer) writeRecord(payload []byte) error {
	n := binary.PutUvarint(t.lenBuf[:], uint64(len(payload)))
	if _, err := t.w.Write(t.lenBuf[:n]); err != nil {
		return err
	}
	_, err := t.w.Write(payload)
	return err
}

// fileID interns a file name, emitting its fileDef record on first use.
// Id 0 means "no file".
func (t *Writer) fileID(name string) (uint64, error) {
	if name == "" {
		return 0, nil
	}
	if id, ok := t.files[name]; ok {
		return id, nil
	}
	id := uint64(len(t.files) + 1)
	t.files[name] = id
	p := append(t.scratch[:0], kindFileDef)
	p = binary.AppendUvarint(p, id)
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	t.scratch = p[:0]
	return id, t.writeRecord(p)
}

// Record implements trace.Sink: it appends a pre-built record.
func (t *Writer) Record(rec trace.Record) error {
	switch rec.Kind {
	case trace.KindAccess:
		if !rec.Type.Valid() {
			return fmt.Errorf("tracebin: unknown access type %v", rec.Type)
		}
		if rec.Hi < rec.Lo {
			return fmt.Errorf("tracebin: inverted interval [%d, %d]", rec.Lo, rec.Hi)
		}
		fid, err := t.fileID(rec.File)
		if err != nil {
			return err
		}
		var flags byte
		if rec.Stack {
			flags |= flagStack
		}
		if rec.Filtered {
			flags |= flagFiltered
		}
		p := append(t.scratch[:0], kindAccess, flags)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		p = binary.AppendUvarint(p, uint64(rec.Rank))
		p = binary.AppendUvarint(p, rec.Lo)
		p = binary.AppendUvarint(p, rec.Hi-rec.Lo)
		p = append(p, byte(rec.Type)+1) // code 0 stays reserved
		p = binary.AppendUvarint(p, rec.Epoch)
		p = binary.AppendUvarint(p, rec.Time)
		p = binary.AppendUvarint(p, rec.CallTime)
		p = append(p, rec.AccumOp)
		p = binary.AppendUvarint(p, uint64(rec.StackID))
		p = binary.AppendUvarint(p, fid)
		p = binary.AppendUvarint(p, uint64(rec.Line))
		t.scratch = p[:0]
		return t.writeRecord(p)
	case trace.KindEpochEnd:
		p := append(t.scratch[:0], kindEpochEnd)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		t.scratch = p[:0]
		return t.writeRecord(p)
	case trace.KindRelease:
		p := append(t.scratch[:0], kindRelease)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		p = binary.AppendUvarint(p, uint64(rec.Rank))
		t.scratch = p[:0]
		return t.writeRecord(p)
	case trace.KindComplete:
		if rec.Hi < rec.Lo {
			return fmt.Errorf("tracebin: inverted interval [%d, %d]", rec.Lo, rec.Hi)
		}
		p := append(t.scratch[:0], kindComplete)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		p = binary.AppendUvarint(p, uint64(rec.Rank))
		p = binary.AppendUvarint(p, rec.Lo)
		p = binary.AppendUvarint(p, rec.Hi-rec.Lo)
		t.scratch = p[:0]
		return t.writeRecord(p)
	}
	return fmt.Errorf("tracebin: unknown record kind %q", rec.Kind)
}

// Flush implements trace.Sink.
func (t *Writer) Flush() error { return t.w.Flush() }

var _ trace.Sink = (*Writer)(nil)

// Reader is the zero-allocation streaming decoder. It implements
// trace.Source.
type Reader struct {
	r     *bufio.Reader
	hdr   trace.Header
	files []string // id-1 indexed intern table
	buf   []byte   // payload buffer for records not wholly buffered
	recN  int      // 1-based index of the last record returned
	off   int64    // byte offset where the last record started
	read  int64    // total bytes consumed
}

// NewReader opens a binary trace stream and decodes its header.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	t := &Reader{r: br}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tracebin: reading magic: %w", eofIsUnexpected(err))
	}
	t.read += 4
	if magic != Magic {
		return nil, fmt.Errorf("tracebin: bad magic %q (want %q)", magic[:], Magic[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("tracebin: reading version: %w", eofIsUnexpected(err))
	}
	t.read++
	if ver != Version {
		return nil, fmt.Errorf("tracebin: unsupported version %d (have %d)", ver, Version)
	}
	ranks, err := t.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("tracebin: reading header ranks: %w", err)
	}
	wlen, err := t.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("tracebin: reading header window: %w", err)
	}
	if wlen > maxPayload {
		return nil, fmt.Errorf("tracebin: header window length %d exceeds limit %d", wlen, maxPayload)
	}
	win := make([]byte, wlen)
	if _, err := io.ReadFull(br, win); err != nil {
		return nil, fmt.Errorf("tracebin: reading header window: %w", eofIsUnexpected(err))
	}
	t.read += int64(wlen)
	t.hdr = trace.Header{Kind: "header", Ranks: int(ranks), Window: string(win)}
	return t, nil
}

// eofIsUnexpected maps a bare io.EOF to io.ErrUnexpectedEOF: the callers
// are mid-structure, where a clean EOF is still a truncation.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readUvarint consumes one LEB128 varint from the stream.
func (t *Reader) readUvarint() (uint64, error) {
	b, err := t.r.Peek(binary.MaxVarintLen64) // shorter, with err, near the end
	x, n := binary.Uvarint(b)
	if n == 0 && err != nil {
		return 0, eofIsUnexpected(err)
	}
	if n <= 0 {
		return 0, fmt.Errorf("varint overflows 64 bits")
	}
	t.r.Discard(n)
	t.read += int64(n)
	return x, nil
}

// Head implements trace.Source.
func (t *Reader) Head() trace.Header { return t.hdr }

// Pos implements trace.Source.
func (t *Reader) Pos() string { return fmt.Sprintf("record %d (offset %d)", t.recN, t.off) }

// BytesRead implements trace.Source.
func (t *Reader) BytesRead() int64 { return t.read }

// errAt wraps a decode error with the current record's position.
func (t *Reader) errAt(err error) error {
	return fmt.Errorf("tracebin: %s: %w", t.Pos(), err)
}

// Read implements trace.Source: it decodes the next record into rec, or
// returns io.EOF at a clean record boundary. fileDef records are
// interned transparently; decode errors carry the record index and byte
// offset and a truncated stream reports io.ErrUnexpectedEOF, never a
// bare EOF.
func (t *Reader) Read(rec *trace.Record) error {
	for {
		t.off = t.read
		t.recN++
		p, err := t.next()
		if err == io.EOF {
			t.recN--
			return io.EOF
		}
		if err != nil {
			return t.errAt(err)
		}
		if p[0] == kindFileDef {
			if err := t.internFile(p[1:]); err != nil {
				return t.errAt(err)
			}
			continue
		}
		if err := t.decode(p, rec); err != nil {
			return t.errAt(err)
		}
		return nil
	}
}

// next consumes one record and returns its non-empty payload, which is
// valid until the next read. A record already in the bufio buffer is
// decoded in place, without a copy; one that straddles the buffer's
// end is read byte-wise into t.buf. A bare io.EOF means the stream
// ended cleanly, before the record's first byte.
func (t *Reader) next() ([]byte, error) {
	b, _ := t.r.Peek(t.r.Buffered())
	d := payload{b: b}
	if plen := d.uvarint("record length"); d.field == "" && plen > 0 && plen <= maxPayload && plen <= uint64(len(d.b)) {
		start := len(b) - len(d.b)
		end := start + int(plen)
		t.r.Discard(end)
		t.read += int64(end)
		return b[start:end], nil
	}
	if _, err := t.r.Peek(1); err != nil {
		return nil, err
	}
	plen, err := t.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("record length: %w", err)
	}
	if plen > maxPayload {
		return nil, fmt.Errorf("record length %d exceeds limit %d", plen, maxPayload)
	}
	if plen == 0 {
		return nil, fmt.Errorf("empty record")
	}
	if uint64(cap(t.buf)) < plen {
		t.buf = make([]byte, plen)
	}
	p := t.buf[:plen]
	if _, err := io.ReadFull(t.r, p); err != nil {
		return nil, fmt.Errorf("record payload: %w", eofIsUnexpected(err))
	}
	t.read += int64(plen)
	return p, nil
}

// internFile decodes a fileDef payload body into the string table.
func (t *Reader) internFile(body []byte) error {
	d := payload{b: body}
	id := d.uvarint("file id")
	if d.field == "" && id != uint64(len(t.files)+1) {
		return fmt.Errorf("file id %d out of sequence (want %d)", id, len(t.files)+1)
	}
	nlen := d.uvarint("file name length")
	if d.field != "" {
		return d.err(body)
	}
	if uint64(len(d.b)) != nlen {
		return fmt.Errorf("file name length %d does not match payload (%d bytes left)", nlen, len(d.b))
	}
	t.files = append(t.files, string(d.b))
	return nil
}

// decode fills rec from one record payload (kind byte first). Values
// are checked in field order, and a failed read zeroes every later
// one, so the first fault is the one reported.
func (t *Reader) decode(p []byte, rec *trace.Record) error {
	*rec = trace.Record{}
	d := payload{b: p[1:]}
	switch p[0] {
	case kindAccess:
		flags := d.byte("flags")
		rec.Kind = trace.KindAccess
		rec.Stack = flags&flagStack != 0
		rec.Filtered = flags&flagFiltered != 0
		rec.Owner = int(d.uvarint("owner"))
		rec.Rank = int(d.uvarint("rank"))
		rec.Lo = d.uvarint("lo")
		rec.Hi = rec.Lo + d.uvarint("interval span")
		if rec.Hi < rec.Lo {
			return fmt.Errorf("interval span %d overflows from lo %d", rec.Hi-rec.Lo, rec.Lo)
		}
		if code := d.byte("type"); code > 0 && access.Type(code-1).Valid() {
			rec.Type = access.Type(code - 1)
		} else if d.field == "" {
			return fmt.Errorf("unknown access type code %d", code)
		}
		rec.Epoch = d.uvarint("epoch")
		rec.Time = d.uvarint("time")
		rec.CallTime = d.uvarint("call time")
		rec.AccumOp = d.byte("accum op")
		rec.StackID = uint32(d.uvarint("stack id"))
		fid := d.uvarint("file id")
		if fid > uint64(len(t.files)) {
			return fmt.Errorf("file id %d cites an undefined file (table has %d)", fid, len(t.files))
		}
		if fid > 0 {
			rec.File = t.files[fid-1]
		}
		rec.Line = int(d.uvarint("line"))
	case kindEpochEnd:
		rec.Kind = trace.KindEpochEnd
		rec.Owner = int(d.uvarint("owner"))
	case kindRelease:
		rec.Kind = trace.KindRelease
		rec.Owner = int(d.uvarint("owner"))
		rec.Rank = int(d.uvarint("rank"))
	case kindComplete:
		rec.Kind = trace.KindComplete
		rec.Owner = int(d.uvarint("owner"))
		rec.Rank = int(d.uvarint("rank"))
		rec.Lo = d.uvarint("lo")
		rec.Hi = rec.Lo + d.uvarint("interval span")
		if rec.Hi < rec.Lo {
			return fmt.Errorf("interval span %d overflows from lo %d", rec.Hi-rec.Lo, rec.Lo)
		}
	default:
		return fmt.Errorf("unknown record kind %d", p[0])
	}
	if d.field != "" {
		return d.err(p[1:])
	}
	if len(d.b) > 0 {
		return fmt.Errorf("%d trailing bytes after record body", len(d.b))
	}
	return nil
}

// payload is a cursor over one record's body whose reads inline into
// the decoder, so a one-byte varint costs a compare. The first read
// that fails is kept (field, left); every read after it returns zero,
// and the decoder reports it once at the end.
type payload struct {
	b     []byte
	field string // the first field that failed to read, "" if none
	left  int    // bytes left when it failed; -1 for a one-byte field
}

// uvarint reads one LEB128 varint. A one-byte varint returns from the
// first iteration.
func (d *payload) uvarint(field string) (x uint64) {
	for i, c := range d.b {
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 && (i < binary.MaxVarintLen64-1 || c < 2) {
			d.b = d.b[i+1:]
			return x
		}
		if i == binary.MaxVarintLen64-1 {
			break
		}
	}
	d.fail(field, len(d.b))
	return 0
}

// byte reads one raw byte.
func (d *payload) byte(field string) byte {
	if len(d.b) > 0 {
		c := d.b[0]
		d.b = d.b[1:]
		return c
	}
	d.fail(field, -1)
	return 0
}

// fail records a failed read unless an earlier one is kept, and stops
// further reads.
func (d *payload) fail(field string, left int) {
	if d.field == "" {
		d.field, d.left = field, left
	}
	d.b = nil
}

// err describes the failure of a read from body, classifying a varint
// by binary.Uvarint's rules.
func (d *payload) err(body []byte) error {
	if d.left < 0 {
		return fmt.Errorf("access record truncated before %s", d.field)
	}
	if _, n := binary.Uvarint(body[len(body)-d.left:]); n < 0 {
		return fmt.Errorf("%s: varint overflows 64 bits", d.field)
	}
	return fmt.Errorf("%s: record truncated mid-varint", d.field)
}

var _ trace.Source = (*Reader)(nil)

// Open sniffs r's leading bytes and returns the matching trace source:
// a binary Reader when the stream opens with the RMTB magic, the JSON
// Lines reader otherwise. format reports which was chosen ("bin" or
// "json").
func Open(r io.Reader) (src trace.Source, format string, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, "", fmt.Errorf("tracebin: sniffing format: %w", err)
	}
	if bytes.Equal(head, Magic[:]) {
		tr, err := NewReader(br)
		return tr, "bin", err
	}
	tr, err := trace.NewReader(br)
	return tr, "json", err
}

// Convert streams every record of src into dst and flushes, returning
// the number of records copied. Both formats implement the interfaces,
// so the same call converts JSON→binary, binary→JSON, or either to
// itself (a canonicalising copy). Conversion is lossless: every field
// of every record round-trips bit-identically.
func Convert(dst trace.Sink, src trace.Source) (int64, error) {
	var n int64
	var rec trace.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if err := dst.Record(rec); err != nil {
			return n, err
		}
		n++
	}
	return n, dst.Flush()
}
