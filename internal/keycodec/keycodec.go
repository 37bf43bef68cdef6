// Package keycodec implements an order-preserving binary encoding for
// composite keys. SCADS indices are "bounded contiguous ranges of an
// index" (paper §3.1), so every index key — for example
// (userID, friendBirthday, friendID) — must encode into bytes whose
// lexicographic order equals the tuple's natural order. That property
// is what makes a query a single bounded range scan.
//
// Encoding scheme (one byte of type tag per element, tags ordered so
// that values of different types still sort deterministically):
//
//	null:   0x01
//	false:  0x02, true: 0x03
//	int64:  0x10 + 8 bytes big-endian with sign bit flipped
//	float64:0x18 + 8 bytes order-normalised IEEE-754
//	time:   0x20 + int64 UnixNano encoding
//	string: 0x30 + escaped bytes + 0x00 0x01 terminator
//	bytes:  0x38 + escaped bytes + 0x00 0x01 terminator
//
// Strings/bytes escape embedded 0x00 as 0x00 0xFF so the terminator
// (0x00 0x01) sorts before any continuation, preserving prefix order.
package keycodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Type tags. Their numeric order defines cross-type sort order.
const (
	tagNull   byte = 0x01
	tagFalse  byte = 0x02
	tagTrue   byte = 0x03
	tagInt    byte = 0x10
	tagFloat  byte = 0x18
	tagTime   byte = 0x20
	tagString byte = 0x30
	tagBytes  byte = 0x38
)

// ErrCorrupt is returned when a key cannot be decoded.
var ErrCorrupt = errors.New("keycodec: corrupt key encoding")

// AppendNull appends an encoded null to dst.
func AppendNull(dst []byte) []byte { return append(dst, tagNull) }

// AppendBool appends an encoded bool to dst.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, tagTrue)
	}
	return append(dst, tagFalse)
}

// AppendInt appends an encoded int64 to dst.
func AppendInt(dst []byte, v int64) []byte {
	dst = append(dst, tagInt)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v)^(1<<63))
	return append(dst, buf[:]...)
}

// AppendFloat appends an encoded float64 to dst. NaN encodes below all
// other floats so ordering stays total.
func AppendFloat(dst []byte, v float64) []byte {
	dst = append(dst, tagFloat)
	bits := math.Float64bits(v)
	if math.IsNaN(v) {
		bits = 0
	} else if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip everything
	} else {
		bits |= 1 << 63 // non-negative: flip sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

// AppendTime appends an encoded time (nanosecond precision, UTC) to dst.
func AppendTime(dst []byte, v time.Time) []byte {
	dst = append(dst, tagTime)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v.UnixNano())^(1<<63))
	return append(dst, buf[:]...)
}

// AppendString appends an encoded string to dst.
func AppendString(dst []byte, v string) []byte {
	return appendEscaped(append(dst, tagString), v)
}

// AppendStringBytes appends the string v holds as AppendString does,
// without making the string.
func AppendStringBytes(dst, v []byte) []byte {
	return appendEscaped(append(dst, tagString), v)
}

// AppendBytes appends an encoded byte slice to dst.
func AppendBytes(dst []byte, v []byte) []byte {
	return appendEscaped(append(dst, tagBytes), v)
}

// appendEscaped copies v up to each 0x00 in one append, escaping the
// 0x00 as 0x00 0xFF, so a value holding none is one copy.
func appendEscaped[T string | []byte](dst []byte, v T) []byte {
	from := 0
	for i := 0; i < len(v); i++ {
		if v[i] == 0x00 {
			dst = append(append(dst, v[from:i+1]...), 0xFF)
			from = i + 1
		}
	}
	dst = append(dst, v[from:]...)
	return append(dst, 0x00, 0x01)
}

// SizeHint returns how many bytes Append adds for elem, exact unless
// elem is a string or byte slice holding 0x00 (each escape adds one),
// and 0 for an unsupported type. Callers size a key's buffer with it.
func SizeHint(elem any) int {
	switch v := elem.(type) {
	case nil, bool:
		return 1
	case int, int32, int64, uint64, float64, time.Time:
		return 9
	case string:
		return len(v) + 3
	case []byte:
		return len(v) + 3
	}
	return 0
}

// Encode encodes the given tuple elements into a single ordered key.
// Supported element types: nil, bool, int, int32, int64, float64,
// time.Time, string, []byte.
func Encode(elems ...any) ([]byte, error) {
	return Append(nil, elems...)
}

// MustEncode is Encode but panics on unsupported element types. It is
// strictly for statically known tuples (test fixtures, compiled-in
// constants) — the regexp.MustCompile convention. Any path encoding
// caller- or wire-supplied values must use Encode/Append and return
// the error; no library code calls MustEncode.
func MustEncode(elems ...any) []byte {
	b, err := Encode(elems...)
	if err != nil {
		panic(err)
	}
	return b
}

// Append appends the encoding of the tuple elements to dst.
func Append(dst []byte, elems ...any) ([]byte, error) {
	for _, e := range elems {
		switch v := e.(type) {
		case nil:
			dst = AppendNull(dst)
		case bool:
			dst = AppendBool(dst, v)
		case int:
			dst = AppendInt(dst, int64(v))
		case int32:
			dst = AppendInt(dst, int64(v))
		case int64:
			dst = AppendInt(dst, v)
		case uint64:
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("keycodec: uint64 %d overflows int64 key element", v)
			}
			dst = AppendInt(dst, int64(v))
		case float64:
			dst = AppendFloat(dst, v)
		case time.Time:
			dst = AppendTime(dst, v)
		case string:
			dst = AppendString(dst, v)
		case []byte:
			dst = AppendBytes(dst, v)
		default:
			return nil, fmt.Errorf("keycodec: unsupported key element type %T", e)
		}
	}
	return dst, nil
}

// Decode decodes all tuple elements from key.
func Decode(key []byte) ([]any, error) {
	var out []any
	for len(key) > 0 {
		v, rest, err := decodeOne(key)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		key = rest
	}
	return out, nil
}

func decodeOne(key []byte) (any, []byte, error) {
	if len(key) == 0 {
		return nil, nil, ErrCorrupt
	}
	tag, rest := key[0], key[1:]
	switch tag {
	case tagNull:
		return nil, rest, nil
	case tagFalse:
		return false, rest, nil
	case tagTrue:
		return true, rest, nil
	case tagInt:
		if len(rest) < 8 {
			return nil, nil, ErrCorrupt
		}
		u := binary.BigEndian.Uint64(rest[:8]) ^ (1 << 63)
		return int64(u), rest[8:], nil
	case tagFloat:
		if len(rest) < 8 {
			return nil, nil, ErrCorrupt
		}
		bits := binary.BigEndian.Uint64(rest[:8])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return math.Float64frombits(bits), rest[8:], nil
	case tagTime:
		if len(rest) < 8 {
			return nil, nil, ErrCorrupt
		}
		u := binary.BigEndian.Uint64(rest[:8]) ^ (1 << 63)
		return time.Unix(0, int64(u)).UTC(), rest[8:], nil
	case tagString:
		raw, rest2, err := decodeEscaped(rest)
		if err != nil {
			return nil, nil, err
		}
		return string(raw), rest2, nil
	case tagBytes:
		raw, rest2, err := decodeEscaped(rest)
		if err != nil {
			return nil, nil, err
		}
		return raw, rest2, nil
	default:
		return nil, nil, fmt.Errorf("keycodec: unknown tag 0x%02x: %w", tag, ErrCorrupt)
	}
}

func decodeEscaped(b []byte) (raw, rest []byte, err error) {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		if b[i] != 0x00 {
			out = append(out, b[i])
			continue
		}
		if i+1 >= len(b) {
			return nil, nil, ErrCorrupt
		}
		switch b[i+1] {
		case 0xFF:
			out = append(out, 0x00)
			i++
		case 0x01:
			return out, b[i+2:], nil
		default:
			return nil, nil, ErrCorrupt
		}
	}
	return nil, nil, ErrCorrupt
}

// AppendDesc appends the encoding of one element with every byte
// complemented, which reverses its sort order relative to other
// Desc-encoded elements of the same type. Indexes use this for ORDER BY
// ... DESC columns so that every scan stays a forward scan.
func AppendDesc(dst []byte, elem any) ([]byte, error) {
	n := len(dst)
	dst, err := Append(dst, elem)
	if err != nil {
		return nil, err
	}
	for i := n; i < len(dst); i++ {
		dst[i] = ^dst[i]
	}
	return dst, nil
}

// AppendElem appends elem with Append, or with AppendDesc when desc.
func AppendElem(dst []byte, elem any, desc bool) ([]byte, error) {
	if desc {
		return AppendDesc(dst, elem)
	}
	return Append(dst, elem)
}

// ElemLen returns the length of the element encoded at the start of
// key; desc says AppendDesc encoded it.
func ElemLen(key []byte, desc bool) (int, error) {
	var flip byte
	if desc {
		flip = 0xFF
	}
	if len(key) == 0 {
		return 0, ErrCorrupt
	}
	switch key[0] ^ flip {
	case tagNull, tagFalse, tagTrue:
		return 1, nil
	case tagInt, tagFloat, tagTime:
		if len(key) < 9 {
			return 0, ErrCorrupt
		}
		return 9, nil
	case tagString, tagBytes:
		for i := 1; i+1 < len(key); i++ {
			if key[i]^flip != 0x00 {
				continue
			}
			switch key[i+1] ^ flip {
			case 0xFF:
				i++
			case 0x01:
				return i + 2, nil
			default:
				return 0, ErrCorrupt
			}
		}
	}
	return 0, ErrCorrupt
}

// PrefixEnd returns the smallest key greater than every key having the
// given prefix, suitable as an exclusive upper bound for a range scan.
// It returns nil when no such bound exists (prefix is all 0xFF).
func PrefixEnd(prefix []byte) []byte {
	_, end := AppendPrefixEnd(nil, prefix)
	return end
}

// AppendPrefixEnd appends PrefixEnd(prefix) to dst and returns the
// extended dst and the bound alone, capped so that appending to it
// cannot write into dst's array; the bound is nil, and nothing is
// appended, when none exists. prefix may lie in dst's array before
// len(dst), so one buffer can hold a key and its end.
func AppendPrefixEnd(dst, prefix []byte) (grown, end []byte) {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] < 0xFF {
			n := len(dst)
			dst = append(append(slices.Grow(dst, i+1), prefix[:i]...), prefix[i]+1)
			return dst, dst[n:len(dst):len(dst)]
		}
	}
	return dst, nil
}
