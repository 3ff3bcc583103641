package trace

import (
	"math"

	"rmarace/internal/access"
)

// Key bits of the canonical scan: each key may appear at most once.
const (
	keyKind uint16 = 1 << iota
	keyOwner
	keyRank
	keyLo
	keyHi
	keyType
	keyEpoch
	keyStack
	keyFile
	keyLine
	keyTime
	keyCallTime
	keyFiltered
	keyAccumOp
	keyStackID
)

// decodeCanonical decodes a line in the canonical shape Writer emits
// straight into rec, without allocating, and reports whether it did.
// The shape is one flat object with no whitespace; exact lower-case
// wireRecord keys, each at most once; strings of printable ASCII with
// no escapes; integers with no fraction, exponent or leading zero, in
// their field's range, negative only in an int field and never "-0";
// true or false for booleans; a known kind and, on an access record, a
// known access type. For any other line it returns false, with rec
// partly written for the caller to overwrite: what else the format
// accepts, and how it fails, is UnmarshalRecord's alone.
func (r *Reader) decodeCanonical(b []byte, rec *Record) bool {
	n := len(b)
	if n < 2 || b[0] != '{' || b[n-1] != '}' {
		return false
	}
	*rec = Record{}
	var seen uint16
	var typ access.Type
	i := 1
	for {
		key, j, ok := quoted(b, i)
		if !ok || j >= n || b[j] != ':' {
			return false
		}
		i = j + 1
		var bit uint16
		var v []byte
		var u uint64
		switch string(key) {
		case "kind":
			bit = keyKind
			if v, i, ok = quoted(b, i); ok {
				rec.Kind, ok = wireKind(v)
			}
		case "owner":
			bit = keyOwner
			rec.Owner, i, ok = canonicalInt(b, i)
		case "rank":
			bit = keyRank
			rec.Rank, i, ok = canonicalInt(b, i)
		case "lo":
			bit = keyLo
			rec.Lo, i, ok = canonicalUint(b, i, math.MaxUint64)
		case "hi":
			bit = keyHi
			rec.Hi, i, ok = canonicalUint(b, i, math.MaxUint64)
		case "type":
			bit = keyType
			if v, i, ok = quoted(b, i); ok {
				typ, ok = wireType(v)
			}
		case "epoch":
			bit = keyEpoch
			rec.Epoch, i, ok = canonicalUint(b, i, math.MaxUint64)
		case "stack":
			bit = keyStack
			rec.Stack, i, ok = canonicalBool(b, i)
		case "file":
			bit = keyFile
			v, i, ok = quoted(b, i)
			if ok = ok && plainASCII(v); ok && string(v) != r.file {
				r.file = string(v)
			}
			rec.File = r.file
		case "line":
			bit = keyLine
			rec.Line, i, ok = canonicalInt(b, i)
		case "time":
			bit = keyTime
			rec.Time, i, ok = canonicalUint(b, i, math.MaxUint64)
		case "call_time":
			bit = keyCallTime
			rec.CallTime, i, ok = canonicalUint(b, i, math.MaxUint64)
		case "filtered":
			bit = keyFiltered
			rec.Filtered, i, ok = canonicalBool(b, i)
		case "accum_op":
			bit = keyAccumOp
			u, i, ok = canonicalUint(b, i, math.MaxUint8)
			rec.AccumOp = uint8(u)
		case "stack_id":
			bit = keyStackID
			u, i, ok = canonicalUint(b, i, math.MaxUint32)
			rec.StackID = uint32(u)
		default:
			return false
		}
		if !ok || seen&bit != 0 || i >= n {
			return false
		}
		seen |= bit
		if b[i] == '}' {
			if i != n-1 {
				return false
			}
			break
		}
		if b[i] != ',' {
			return false
		}
		i++
	}
	if seen&keyKind == 0 {
		return false
	}
	if rec.Kind == KindAccess {
		if seen&keyType == 0 {
			return false
		}
		rec.Type = typ
	}
	return true
}

// quoted scans the quoted string starting at b[i] up to the next quote
// and returns its raw contents and the index after the closing quote.
// It does not check the contents: a key, kind or type name that holds
// an escape or a non-ASCII byte matches no known name, and a file name
// goes through plainASCII.
func quoted(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		if b[j] == '"' {
			return b[i+1 : j], j + 1, true
		}
	}
	return nil, len(b), false
}

// plainASCII reports whether a string's contents need no unescaping or
// UTF-8 checking: printable ASCII without a backslash.
func plainASCII(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// canonicalUint scans the unsigned integer starting at b[i], at most
// max. A leading zero ends the number, so "01" leaves the caller at a
// digit where it wants a separator. Numbers of 20 or more digits, which
// only the top of the uint64 range needs, are left to the reference.
func canonicalUint(b []byte, i int, max uint64) (uint64, int, bool) {
	if i < len(b) && b[i] == '0' {
		return 0, i + 1, true
	}
	var v uint64
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		if j-i == 19 {
			return 0, j, false
		}
		v = v*10 + uint64(b[j]-'0')
	}
	return v, j, j > i && v <= max
}

// canonicalInt scans the int starting at b[i].
func canonicalInt(b []byte, i int) (int, int, bool) {
	if i < len(b) && b[i] == '-' {
		m, j, ok := canonicalUint(b, i+1, uint64(math.MaxInt)+1)
		return -int(m), j, ok && m != 0
	}
	m, j, ok := canonicalUint(b, i, math.MaxInt)
	return int(m), j, ok
}

// canonicalBool scans the boolean literal starting at b[i].
func canonicalBool(b []byte, i int) (bool, int, bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}

// wireKind resolves one of the four record kinds.
func wireKind(name []byte) (Kind, bool) {
	switch string(name) {
	case string(KindAccess):
		return KindAccess, true
	case string(KindEpochEnd):
		return KindEpochEnd, true
	case string(KindRelease):
		return KindRelease, true
	case string(KindComplete):
		return KindComplete, true
	}
	return "", false
}

// wireType resolves an access type's wire name.
func wireType(name []byte) (access.Type, bool) {
	for t, n := range typeWireNames {
		if string(name) == n {
			return access.Type(t), true
		}
	}
	return 0, false
}
