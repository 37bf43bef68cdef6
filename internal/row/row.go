// Package row defines the typed tuple layer of SCADS: schemas declare
// tables with typed columns, rows are column-name → value maps, and a
// binary codec turns rows into the opaque values the storage engine
// holds. Index keys are built from rows with the order-preserving
// keycodec, so "ORDER BY birthday" is just a byte-ordered scan.
package row

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"scads/internal/keycodec"
	"scads/internal/record"
)

// Type enumerates column types.
type Type int

// Supported column types.
const (
	String Type = iota
	Int
	Float
	Bool
	Time
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType maps DDL type names to Types.
func ParseType(s string) (Type, error) {
	switch s {
	case "string", "text", "varchar":
		return String, nil
	case "int", "integer", "bigint":
		return Int, nil
	case "float", "double":
		return Float, nil
	case "bool", "boolean":
		return Bool, nil
	case "time", "timestamp", "datetime":
		return Time, nil
	default:
		return 0, fmt.Errorf("row: unknown type %q", s)
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Row is one tuple. Values must be string, int64, float64, bool or
// time.Time according to the column type.
type Row map[string]any

// Clone returns a shallow copy (values are immutable types).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// CheckType validates that v matches t.
func CheckType(t Type, v any) error {
	ok := false
	switch t {
	case String:
		_, ok = v.(string)
	case Int:
		_, ok = v.(int64)
	case Float:
		_, ok = v.(float64)
	case Bool:
		_, ok = v.(bool)
	case Time:
		_, ok = v.(time.Time)
	}
	if !ok {
		return fmt.Errorf("row: value %v (%T) does not match column type %s", v, v, t)
	}
	return nil
}

// Normalize widens Go literals into canonical row values (int → int64,
// float32 → float64) so application code can pass natural types.
func Normalize(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint32:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// ErrCorrupt is returned when an encoded row fails to decode.
var ErrCorrupt = errors.New("row: corrupt encoding")

// Value type tags of the binary row codec. Booleans encode their value
// into the tag itself.
const (
	valString byte = 0x01
	valInt    byte = 0x02
	valFloat  byte = 0x03
	valFalse  byte = 0x04
	valTrue   byte = 0x05
	valTime   byte = 0x06
)

// AppendEncode appends the binary encoding of r to dst and returns
// the extended slice:
//
//	columnCount uvarint
//	per column, in sorted name order:
//	  nameLen uvarint | name | tag byte | value
//
// where value is: uvarint length + bytes (string), zigzag varint
// (int), 8-byte little-endian IEEE-754 bits (float), nothing (bool —
// the tag carries it), or zigzag unix seconds + uvarint nanoseconds
// (time). Column order is canonicalised so equal rows encode
// identically, which the durability and contention layers rely on for
// byte-equality comparisons.
//
// Time codec contract: a time column stores the INSTANT only — the
// zone offset is not encoded, and Decode materialises the instant in
// UTC. Two encodings of the same instant in different zones are
// byte-identical (a feature for the equality uses above), and
// comparisons must use time.Time.Equal (as row.Equal does), never ==.
//
// Values are widened as Normalize does, so a row of Go literals encodes
// exactly as its normalized copy would.
func AppendEncode(dst []byte, r Row) ([]byte, error) {
	// The names of a row of up to 16 columns stay on the stack.
	var buf [16]string
	names := buf[:0]
	for k := range r {
		names = append(names, k)
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		var err error
		if dst, err = appendColumn(dst, n, r[n]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendColumn appends one column of AppendEncode's encoding, its name
// and its value, to dst.
func appendColumn(dst []byte, name string, v any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	switch v := v.(type) {
	case string:
		dst = append(dst, valString)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case int64:
		dst = appendInt(dst, v)
	case int:
		dst = appendInt(dst, int64(v))
	case int32:
		dst = appendInt(dst, int64(v))
	case uint32:
		dst = appendInt(dst, int64(v))
	case float64:
		dst = appendFloat(dst, v)
	case float32:
		dst = appendFloat(dst, float64(v))
	case bool:
		if v {
			dst = append(dst, valTrue)
		} else {
			dst = append(dst, valFalse)
		}
	case time.Time:
		dst = append(dst, valTime)
		dst = appendZigzag(dst, v.Unix())
		dst = binary.AppendUvarint(dst, uint64(v.Nanosecond()))
	default:
		return nil, fmt.Errorf("row: encode: column %q has unsupported type %T", name, v)
	}
	return dst, nil
}

// Encode serializes r. Column order is canonicalised so equal rows
// encode identically.
func Encode(r Row) ([]byte, error) {
	return AppendEncode(make([]byte, 0, encodedSizeHint(r)), r)
}

func encodedSizeHint(r Row) int {
	n := 2
	for k, v := range r {
		n += len(k) + 12
		if s, ok := v.(string); ok {
			n += len(s)
		}
	}
	return n
}

func appendInt(dst []byte, v int64) []byte {
	return appendZigzag(append(dst, valInt), v)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, valFloat), math.Float64bits(v))
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// Decode deserializes a row produced by Encode. Every length and
// count is validated against the bytes present before use, so corrupt
// or truncated input returns ErrCorrupt rather than panicking or
// over-allocating.
//
// The row does not alias b: column names and string values are
// substrings of one private copy of the payload, so a row costs one
// string allocation however many columns it has (plus the map and the
// boxing of its values), and keeping any one column alive keeps the
// whole encoded row alive.
func Decode(b []byte) (Row, error) {
	return parse(b, string(b), nil)
}

// DecodeAll decodes the values of recs, one result's records, as Decode
// decodes each, into rows that share what rows of one result can: all
// their names and strings are substrings of one copy of the result's
// bytes, and a string or int value equal to the previous row's value in
// the same column is that row's boxed value, not a box of its own. Each
// row is still its own map, so changing one row leaves the others
// alone. The cost of the sharing: keeping any one column of a result
// alive keeps the whole result's bytes alive, where Decode keeps one
// row's.
func DecodeAll(recs []record.Record) ([]Row, error) {
	size := 0
	for i := range recs {
		size += len(recs[i].Value)
	}
	var copied strings.Builder
	copied.Grow(size)
	for i := range recs {
		copied.Write(recs[i].Value)
	}
	text := copied.String()
	// prev holds the previous row's first columns with their boxed values.
	var prev [16]column
	out := make([]Row, len(recs))
	for i := range recs {
		b := recs[i].Value
		var err error
		if out[i], err = parse(b, text[:len(b)], prev[:]); err != nil {
			return nil, err
		}
		text = text[len(b):]
	}
	return out, nil
}

// Columns reads an encoded row in place. Reset checks the whole
// encoding once, as Decode does and with the same ErrCorrupt cases;
// Value then finds a column's encoded value by name. It builds no map
// and boxes nothing, and a Columns is reused from one row to the next:
// what it returns aliases the row it was last Reset to.
type Columns struct {
	b    []byte
	cols []span
}

// span locates one column of Columns.b: its bytes are b[at:end], its
// name b[name:val] and its value b[val:end], type tag first.
type span struct{ at, name, val, end int }

// Reset checks the encoded row b and reads its columns.
func (c *Columns) Reset(b []byte) error {
	c.b, c.cols = nil, c.cols[:0]
	count, at, err := columnCount(b)
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		nameAt, valAt, end, err := columnAt(b[at:])
		if err != nil {
			c.cols = c.cols[:0]
			return err
		}
		c.cols = append(c.cols, span{at, at + nameAt, at + valAt, at + end})
		at += end
	}
	if at != len(b) {
		c.cols = c.cols[:0]
		return fmt.Errorf("row: decode: %d trailing bytes: %w", len(b)-at, ErrCorrupt)
	}
	c.b = b
	return nil
}

// Value returns the encoded value of the named column, type tag first,
// for AppendKeyElem or AppendColumnValue. A name the row repeats is
// its last column of that name, the one Decode keeps.
func (c *Columns) Value(name string) ([]byte, bool) {
	for i := len(c.cols) - 1; i >= 0; i-- {
		if s := c.cols[i]; string(c.b[s.name:s.val]) == name {
			return c.b[s.val:s.end], true
		}
	}
	return nil, false
}

// AppendProject appends to dst the encoded row of the columns whose
// names are in names, each copied as it stands. For a row AppendEncode
// wrote, as every stored row is, those are the bytes
// AppendEncode(Project(r, names)) writes; for any row Reset accepts,
// they decode to Project's row.
func (c *Columns) AppendProject(dst []byte, names []string) []byte {
	n := 0
	for _, s := range c.cols {
		if named(names, c.b[s.name:s.val]) {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, s := range c.cols {
		if named(names, c.b[s.name:s.val]) {
			dst = append(dst, c.b[s.at:s.end]...)
		}
	}
	return dst
}

func named(names []string, name []byte) bool {
	for _, n := range names {
		if n == string(name) {
			return true
		}
	}
	return false
}

// AppendColumnValue appends one column of AppendEncode's encoding to
// dst: the name, then v, an encoded value as Columns.Value returns it.
// A caller that holds a row's columns in sorted name order, each once,
// encodes the row without building its map: the uvarint column count,
// then AppendColumnValue for each column.
func AppendColumnValue(dst []byte, name string, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(append(dst, name...), v...)
}

// AppendKeyElem appends to dst the key element of v, an encoded value
// as Columns.Value returns it: what keycodec.AppendElem appends for the
// value Decode gives that column.
func AppendKeyElem(dst, v []byte, desc bool) []byte {
	at := len(dst)
	switch v[0] {
	case valString:
		_, n := binary.Uvarint(v[1:])
		dst = keycodec.AppendStringBytes(dst, v[1+n:])
	case valInt:
		dst = keycodec.AppendInt(dst, zigzag(v[1:]))
	case valFloat:
		dst = keycodec.AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(v[1:])))
	case valFalse, valTrue:
		dst = keycodec.AppendBool(dst, v[0] == valTrue)
	case valTime:
		dst = keycodec.AppendTime(dst, timeOf(v[1:]))
	}
	if desc {
		for i := at; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

// column is one decoded column and its boxed value.
type column struct {
	name string
	v    any
}

// parse decodes the encoded row b, whose bytes text holds, taking every
// name and string from text. When prev is non-empty, column i's string
// or int value reuses prev[i]'s box when prev[i] is the same column
// holding an equal value, and is left in prev[i] for the next row.
func parse(b []byte, text string, prev []column) (Row, error) {
	count, at, err := columnCount(b)
	if err != nil {
		return nil, err
	}
	// The map size hint is capped so that a hostile count cannot drive a
	// huge allocation either way.
	r := make(Row, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		nameAt, valAt, end, err := columnAt(b[at:])
		if err != nil {
			return nil, err
		}
		name := text[at+nameAt : at+valAt]
		v := b[at+valAt : at+end]
		switch v[0] {
		case valString:
			_, n := binary.Uvarint(v[1:])
			r[name] = box(prev, i, name, text[at+valAt+1+n:at+end])
		case valInt:
			r[name] = box(prev, i, name, zigzag(v[1:]))
		case valFloat:
			r[name] = math.Float64frombits(binary.LittleEndian.Uint64(v[1:]))
		case valFalse:
			r[name] = false
		case valTrue:
			r[name] = true
		case valTime:
			r[name] = timeOf(v[1:])
		}
		at += end
	}
	if at != len(b) {
		return nil, fmt.Errorf("row: decode: %d trailing bytes: %w", len(b)-at, ErrCorrupt)
	}
	return r, nil
}

// columnCount reads an encoded row's column count, which ends at b[n:].
// A column costs at least two bytes (name length + type tag), so a count
// past what remains over two is corrupt.
func columnCount(b []byte) (count uint64, n int, err error) {
	count, n = binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)-n)/2 {
		return 0, 0, fmt.Errorf("row: decode: bad column count: %w", ErrCorrupt)
	}
	return count, n, nil
}

// columnAt checks the column at the start of b as Decode does and
// locates it: b[nameAt:valAt] is its name and b[valAt:end] its value,
// type tag first.
func columnAt(b []byte) (nameAt, valAt, end int, err error) {
	nameLen, n := binary.Uvarint(b)
	if n <= 0 || nameLen > uint64(len(b)-n) {
		return 0, 0, 0, fmt.Errorf("row: decode: bad column name length: %w", ErrCorrupt)
	}
	nameAt, valAt = n, n+int(nameLen)
	name := b[nameAt:valAt]
	if valAt == len(b) {
		return 0, 0, 0, fmt.Errorf("row: decode: missing value tag for %q: %w", name, ErrCorrupt)
	}
	v := b[valAt+1:]
	switch tag := b[valAt]; tag {
	case valString:
		slen, n := binary.Uvarint(v)
		if n <= 0 || slen > uint64(len(v)-n) {
			return 0, 0, 0, fmt.Errorf("row: decode: bad string length for %q: %w", name, ErrCorrupt)
		}
		end = n + int(slen)
	case valInt:
		if _, end = binary.Uvarint(v); end <= 0 {
			return 0, 0, 0, fmt.Errorf("row: decode: bad int for %q: %w", name, ErrCorrupt)
		}
	case valFloat:
		if len(v) < 8 {
			return 0, 0, 0, fmt.Errorf("row: decode: short float for %q: %w", name, ErrCorrupt)
		}
		end = 8
	case valFalse, valTrue:
	case valTime:
		_, n := binary.Uvarint(v)
		if n <= 0 {
			return 0, 0, 0, fmt.Errorf("row: decode: bad time seconds for %q: %w", name, ErrCorrupt)
		}
		nsec, n2 := binary.Uvarint(v[n:])
		if n2 <= 0 || nsec > 999999999 {
			return 0, 0, 0, fmt.Errorf("row: decode: bad time nanoseconds for %q: %w", name, ErrCorrupt)
		}
		end = n + n2
	default:
		return 0, 0, 0, fmt.Errorf("row: decode: unknown value tag 0x%02x for %q: %w", tag, name, ErrCorrupt)
	}
	return nameAt, valAt, valAt + 1 + end, nil
}

// zigzag decodes the zigzag varint at the start of b, which columnAt
// has checked.
func zigzag(b []byte) int64 {
	u, _ := binary.Uvarint(b)
	return int64(u>>1) ^ -int64(u&1)
}

// timeOf decodes a checked time value (after its tag), in UTC.
func timeOf(b []byte) time.Time {
	_, n := binary.Uvarint(b)
	nsec, _ := binary.Uvarint(b[n:])
	return time.Unix(zigzag(b), int64(nsec)).UTC()
}

// box returns v boxed: prev[i]'s box when that is column name holding
// v, else a new box, which it leaves in prev[i] (when there is one).
func box[T string | int64](prev []column, i uint64, name string, v T) any {
	if i >= uint64(len(prev)) {
		return v
	}
	if p := &prev[i]; p.name == name {
		if pv, ok := p.v.(T); ok && pv == v {
			return p.v
		}
	}
	prev[i] = column{name, v}
	return prev[i].v
}

// EncodeKey builds an order-preserving key from the named columns of
// r, widening each value as Normalize does. The key is built in one
// buffer, sized for the common short key and grown only by a long one.
func EncodeKey(r Row, cols []string) ([]byte, error) {
	key, err := AppendKey(make([]byte, 0, 48), r, cols)
	if err != nil {
		return nil, err
	}
	return key, nil
}

// AppendKey appends EncodeKey's key for r's named columns to dst.
func AppendKey(dst []byte, r Row, cols []string) ([]byte, error) {
	for _, c := range cols {
		v, ok := r[c]
		if !ok {
			return dst, fmt.Errorf("row: key column %q missing from row", c)
		}
		var err error
		if dst, err = keycodec.Append(dst, Normalize(v)); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Project returns a new row with only the named columns (all columns
// when cols is empty).
func Project(r Row, cols []string) Row {
	if len(cols) == 0 {
		return r.Clone()
	}
	out := make(Row, len(cols))
	for _, c := range cols {
		if v, ok := r[c]; ok {
			out[c] = v
		}
	}
	return out
}

// Equal reports deep equality of two rows (time values compared with
// time.Time.Equal).
func Equal(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return false
		}
		ta, aIsTime := va.(time.Time)
		tb, bIsTime := vb.(time.Time)
		if aIsTime || bIsTime {
			if !aIsTime || !bIsTime || !ta.Equal(tb) {
				return false
			}
			continue
		}
		if va != vb {
			return false
		}
	}
	return true
}
