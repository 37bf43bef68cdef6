package keycodec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	cases := [][]any{
		{nil},
		{true}, {false},
		{int64(0)}, {int64(-1)}, {int64(1)}, {int64(math.MinInt64)}, {int64(math.MaxInt64)},
		{3.14}, {-2.71}, {0.0},
		{"hello"}, {""}, {"with\x00null"},
		{[]byte{1, 2, 3}}, {[]byte{}}, {[]byte{0, 0xFF, 0}},
		{time.Date(2009, 1, 4, 12, 0, 0, 0, time.UTC)},
		{"user:42", int64(19840105), "friend:7"},
		{int64(5), "b", true, 1.5},
	}
	for _, in := range cases {
		enc, err := Encode(in...)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		if len(out) != len(in) {
			t.Fatalf("Decode(%v) = %v: length mismatch", in, out)
		}
		for i := range in {
			want := normalize(in[i])
			got := normalize(out[i])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("element %d: got %#v want %#v", i, got, want)
			}
		}
	}
}

// normalize maps encoder-equivalent values onto their decoded forms.
func normalize(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case []byte:
		if len(x) == 0 {
			return []byte{}
		}
		return x
	default:
		return v
	}
}

func TestIntOrdering(t *testing.T) {
	vals := []int64{math.MinInt64, -1000, -1, 0, 1, 42, 5000, math.MaxInt64}
	var prev []byte
	for i, v := range vals {
		enc := AppendInt(nil, v)
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("ordering broken at %d (%d)", i, v)
		}
		prev = enc
	}
}

func TestFloatOrdering(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -0.5, 0, 0.5, 1, 1e300, math.Inf(1)}
	var prev []byte
	for i, v := range vals {
		enc := AppendFloat(nil, v)
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("float ordering broken at %d (%g)", i, v)
		}
		prev = enc
	}
}

func TestStringOrderingMatchesNative(t *testing.T) {
	strs := []string{"", "a", "aa", "ab", "b", "ba", "z", "a\x00b", "a\x00", "a\x01"}
	encoded := make([][]byte, len(strs))
	for i, s := range strs {
		encoded[i] = AppendString(nil, s)
	}
	sortedStrs := append([]string(nil), strs...)
	sort.Strings(sortedStrs)
	sort.Slice(encoded, func(i, j int) bool { return bytes.Compare(encoded[i], encoded[j]) < 0 })
	for i := range sortedStrs {
		dec, err := Decode(encoded[i])
		if err != nil {
			t.Fatal(err)
		}
		if dec[0].(string) != sortedStrs[i] {
			t.Errorf("position %d: encoded order gives %q, native order gives %q", i, dec[0], sortedStrs[i])
		}
	}
}

func TestTupleOrderingIsLexicographic(t *testing.T) {
	// (user, bday) tuples must sort by user then bday — the §3.2
	// birthday-index layout.
	a := MustEncode("alice", int64(100))
	b := MustEncode("alice", int64(200))
	c := MustEncode("bob", int64(50))
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Fatal("tuple ordering is not lexicographic")
	}
}

func TestPrefixIsolation(t *testing.T) {
	// All keys with first element "alice" must be contiguous and
	// strictly between prefix and PrefixEnd(prefix).
	prefix := MustEncode("alice")
	inside := [][]byte{
		MustEncode("alice", int64(math.MinInt64)),
		MustEncode("alice", "zzzz"),
		MustEncode("alice", int64(math.MaxInt64)),
	}
	outside := [][]byte{
		MustEncode("alicf"),
		MustEncode("alic"),
		MustEncode("bob", int64(0)),
	}
	end := PrefixEnd(prefix)
	for _, k := range inside {
		if bytes.Compare(k, prefix) < 0 || bytes.Compare(k, end) >= 0 {
			t.Errorf("key %x not inside prefix range", k)
		}
	}
	for _, k := range outside {
		if bytes.HasPrefix(k, prefix) {
			t.Errorf("key %x unexpectedly has prefix", k)
		}
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0x00, 0x01, 0xFE}, []byte{0x00, 0x01, 0xFF}},
	}
	for _, c := range cases {
		if got := PrefixEnd(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("PrefixEnd(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestCrossTypeOrderingStable(t *testing.T) {
	// null < bool < int < float < time < string < bytes
	seq := [][]byte{
		AppendNull(nil),
		AppendBool(nil, false),
		AppendBool(nil, true),
		AppendInt(nil, math.MaxInt64),
		AppendFloat(nil, math.Inf(1)),
		AppendTime(nil, time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)),
		AppendString(nil, "x"),
		AppendBytes(nil, []byte{0xFF}),
	}
	for i := 1; i < len(seq); i++ {
		if bytes.Compare(seq[i-1], seq[i]) >= 0 {
			t.Errorf("cross-type ordering broken between %d and %d", i-1, i)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	bad := [][]byte{
		{0x10, 1, 2},       // short int
		{0x30, 'a'},        // unterminated string
		{0x30, 0x00, 0x02}, // bad escape
		{0x7F},             // unknown tag
		{0x20, 1, 2, 3},    // short time
		{0x18, 1},          // short float
		{0x38, 0x00},       // truncated escape
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x) succeeded, want error", b)
		}
	}
}

func TestEncodeUnsupported(t *testing.T) {
	if _, err := Encode(struct{}{}); err == nil {
		t.Fatal("Encode(struct{}{}) should fail")
	}
	if _, err := Encode(uint64(math.MaxUint64)); err == nil {
		t.Fatal("Encode(MaxUint64) should fail")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode did not panic on bad input")
		}
	}()
	MustEncode(make(chan int))
}

// Property: integer order is preserved by encoding.
func TestQuickIntOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := AppendInt(nil, a), AppendInt(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string order is preserved by encoding.
func TestQuickStringOrder(t *testing.T) {
	f := func(a, b string) bool {
		ea, eb := AppendString(nil, a), AppendString(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: round trip through Encode/Decode is the identity on
// (int64, string, bool) tuples.
func TestQuickRoundTrip(t *testing.T) {
	f := func(i int64, s string, b bool) bool {
		enc := MustEncode(i, s, b)
		dec, err := Decode(enc)
		if err != nil || len(dec) != 3 {
			return false
		}
		return dec[0] == i && dec[1] == s && dec[2] == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tuple encoding sorts lexicographically element-wise for
// same-shape (string,int64) tuples.
func TestQuickTupleOrder(t *testing.T) {
	f := func(s1 string, i1 int64, s2 string, i2 int64) bool {
		a := MustEncode(s1, i1)
		b := MustEncode(s2, i2)
		var want int
		switch {
		case s1 < s2:
			want = -1
		case s1 > s2:
			want = 1
		case i1 < i2:
			want = -1
		case i1 > i2:
			want = 1
		}
		got := bytes.Compare(a, b)
		if got > 0 {
			got = 1
		} else if got < 0 {
			got = -1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeTuple(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Encode("user:12345", int64(i), "friend:6789")
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	enc := MustEncode("user:12345", int64(42), "friend:6789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Decode(enc)
	}
}

func TestAppendDescReversesOrder(t *testing.T) {
	// Ascending ints become descending byte order under AppendDesc.
	vals := []int64{math.MinInt64, -5, 0, 7, math.MaxInt64}
	var prev []byte
	for i, v := range vals {
		enc, err := AppendDesc(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && bytes.Compare(prev, enc) <= 0 {
			t.Fatalf("desc ordering broken at %d (%d)", i, v)
		}
		prev = enc
	}
	// Strings too, including the prefix case.
	strs := []string{"", "ab", "abc", "b"}
	prev = nil
	for i, s := range strs {
		enc, err := AppendDesc(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && bytes.Compare(prev, enc) <= 0 {
			t.Fatalf("desc string ordering broken at %q", s)
		}
		prev = enc
	}
}

func TestQuickAppendDescReverses(t *testing.T) {
	f := func(a, b int64) bool {
		ea, _ := AppendDesc(nil, a)
		eb, _ := AppendDesc(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) > 0
		case a > b:
			return bytes.Compare(ea, eb) < 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendDescUnsupported(t *testing.T) {
	if _, err := AppendDesc(nil, struct{}{}); err == nil {
		t.Fatal("AppendDesc accepted unsupported type")
	}
}

// TestElemLenSplitsMixedKeys: ElemLen walks a key whose elements were
// appended ascending and descending, escaped zero bytes included, and
// rejects a truncated element.
func TestElemLenSplitsMixedKeys(t *testing.T) {
	elems := []any{"a\x00b", int64(-3), "", nil, true, 2.5, []byte{0, 0xFF, 1}, time.Unix(7, 0)}
	for _, desc := range []bool{false, true} {
		var key []byte
		var lens []int
		for _, e := range elems {
			before := len(key)
			var err error
			if desc {
				key, err = AppendDesc(key, e)
			} else {
				key, err = Append(key, e)
			}
			if err != nil {
				t.Fatal(err)
			}
			lens = append(lens, len(key)-before)
		}
		rest := key
		for i, want := range lens {
			n, err := ElemLen(rest, desc)
			if err != nil || n != want {
				t.Fatalf("desc=%v element %d (%v): ElemLen = %d, %v, want %d", desc, i, elems[i], n, err, want)
			}
			if _, err := ElemLen(rest[:n-1], desc); n > 1 && err == nil {
				t.Errorf("desc=%v element %d: a truncated element was accepted", desc, i)
			}
			rest = rest[n:]
		}
	}
}

// escapeByByte is the byte-at-a-time escaping loop appendEscaped
// replaced; the encoding must not change.
func escapeByByte(dst, v []byte) []byte {
	for _, b := range v {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x01)
}

// Property: for random strings and byte slices rich in 0x00 and 0xFF,
// AppendString and AppendBytes encode exactly as the byte-at-a-time
// loop did, after whatever dst already holds; SizeHint is exact when
// the value holds no 0x00; and the encodings sort as their values do.
func TestEscapingMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1984))
	alphabet := []byte{0x00, 0x00, 0xFF, 0xFF, 0x01, 0xFE, 'a'}
	values := make([][]byte, 400)
	for i := range values {
		v := make([]byte, rng.Intn(24))
		for j := range v {
			v[j] = alphabet[rng.Intn(len(alphabet))]
		}
		values[i] = v
	}
	values = append(values, nil, []byte{0}, []byte{0, 0}, []byte{0xFF})
	dst := []byte{tagInt, 0xAB}
	for _, v := range values {
		want := escapeByByte(append(slices.Clone(dst), tagString), v)
		if got := AppendString(slices.Clone(dst), string(v)); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%x, %x) = %x, want %x", dst, v, got, want)
		}
		if got := AppendBytes(nil, v); !bytes.Equal(got, escapeByByte([]byte{tagBytes}, v)) {
			t.Fatalf("AppendBytes(%x) = %x, want %x", v, got, escapeByByte([]byte{tagBytes}, v))
		}
		if !bytes.Contains(v, []byte{0}) {
			if n := len(AppendString(nil, string(v))); SizeHint(string(v)) != n || SizeHint(v) != n {
				t.Fatalf("SizeHint(%x) = %d, encoding is %d bytes", v, SizeHint(v), n)
			}
		}
	}
	sort.Slice(values, func(i, j int) bool { return bytes.Compare(values[i], values[j]) < 0 })
	for i := 1; i < len(values); i++ {
		a, b := AppendString(nil, string(values[i-1])), AppendString(nil, string(values[i]))
		if c := bytes.Compare(values[i-1], values[i]); bytes.Compare(a, b) != c {
			t.Fatalf("%x vs %x compare %d, encodings %x vs %x do not", values[i-1], values[i], c, a, b)
		}
		a, b = AppendBytes(nil, values[i-1]), AppendBytes(nil, values[i])
		if c := bytes.Compare(values[i-1], values[i]); bytes.Compare(a, b) != c {
			t.Fatalf("bytes %x vs %x compare %d, encodings do not", values[i-1], values[i], c)
		}
	}
}

// TestSizeHintFixedWidth: SizeHint is exact for every fixed-width
// element and 0 for an unsupported one.
func TestSizeHintFixedWidth(t *testing.T) {
	for _, e := range []any{nil, true, false, 7, int32(7), int64(-7), uint64(7), 2.5, time.Unix(9, 0)} {
		enc, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		if SizeHint(e) != len(enc) {
			t.Errorf("SizeHint(%#v) = %d, encoding is %d bytes", e, SizeHint(e), len(enc))
		}
	}
	if SizeHint(struct{}{}) != 0 {
		t.Error("SizeHint of an unsupported type is not 0")
	}
}

// TestAppendPrefixEnd: AppendPrefixEnd appends PrefixEnd's bound after
// dst, leaves dst's bytes alone, appends nothing when there is no
// bound, and reads a prefix held earlier in dst's own array.
func TestAppendPrefixEnd(t *testing.T) {
	for _, prefix := range [][]byte{{0x01}, {0x01, 0xFF}, {0xFF, 0xFF}, {}, {0x00, 0x01, 0xFE}} {
		dst := []byte{0x7A}
		got, end := AppendPrefixEnd(dst, prefix)
		if !bytes.Equal(got[:1], dst) || !bytes.Equal(got[1:], PrefixEnd(prefix)) || !bytes.Equal(end, PrefixEnd(prefix)) || (end == nil) != (PrefixEnd(prefix) == nil) {
			t.Errorf("AppendPrefixEnd(%x, %x) = %x, %x; want %x then %x", dst, prefix, got, end, dst, PrefixEnd(prefix))
		}
	}
	buf := make([]byte, 0, 16)
	buf = append(buf, 0x30, 'a', 0xFF)
	grown, end := AppendPrefixEnd(buf, buf)
	if !bytes.Equal(end, []byte{0x30, 'b'}) || !bytes.Equal(grown, []byte{0x30, 'a', 0xFF, 0x30, 'b'}) || cap(end) != len(end) {
		t.Errorf("in-buffer AppendPrefixEnd = %x, %x (cap %d)", grown, end, cap(end))
	}
}
