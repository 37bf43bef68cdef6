package record

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAppendDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{Key: []byte("k"), Value: []byte("v"), Version: 1},
		{Key: []byte("key2"), Value: nil, Version: 42, Tombstone: true},
		{Key: []byte{}, Value: []byte{}, Version: 0},
		{Key: bytes.Repeat([]byte{0xAB}, 300), Value: bytes.Repeat([]byte{0xCD}, 5000), Version: 1 << 60},
	}
	for i, r := range cases {
		enc := r.AppendBinary(nil)
		if len(enc) != r.EncodedSize() {
			t.Errorf("case %d: EncodedSize = %d, actual %d", i, r.EncodedSize(), len(enc))
		}
		got, rest, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Errorf("case %d: %d leftover bytes", i, len(rest))
		}
		if !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Value, r.Value) ||
			got.Version != r.Version || got.Tombstone != r.Tombstone {
			t.Errorf("case %d: round trip mismatch: got %+v want %+v", i, got, r)
		}
	}
}

func TestDecodeMultiple(t *testing.T) {
	var buf []byte
	recs := []Record{
		{Key: []byte("a"), Value: []byte("1"), Version: 1},
		{Key: []byte("b"), Value: []byte("2"), Version: 2},
		{Key: []byte("c"), Version: 3, Tombstone: true},
	}
	for _, r := range recs {
		buf = r.AppendBinary(buf)
	}
	for i := 0; len(buf) > 0; i++ {
		r, rest, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Key, recs[i].Key) {
			t.Errorf("record %d: key %q want %q", i, r.Key, recs[i].Key)
		}
		buf = rest
	}
}

func TestDecodeCorruption(t *testing.T) {
	r := Record{Key: []byte("key"), Value: []byte("value"), Version: 7}
	enc := r.AppendBinary(nil)

	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Error("bit flip not detected")
	}

	// Truncations at every length must fail, never panic.
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeBinary(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestSupersedes(t *testing.T) {
	a := Record{Key: []byte("k"), Value: []byte("a"), Version: 1}
	b := Record{Key: []byte("k"), Value: []byte("b"), Version: 2}
	if !b.Supersedes(a) || a.Supersedes(b) {
		t.Error("higher version must supersede")
	}
	// Tie: tombstone wins.
	del := Record{Key: []byte("k"), Version: 2, Tombstone: true}
	if !del.Supersedes(b) || b.Supersedes(del) {
		t.Error("tombstone must win version ties")
	}
	// Tie without tombstone: larger value for determinism.
	c := Record{Key: []byte("k"), Value: []byte("c"), Version: 2}
	if !c.Supersedes(b) || b.Supersedes(c) {
		t.Error("deterministic tie-break failed")
	}
	// Identical records do not supersede themselves.
	if a.Supersedes(a) {
		t.Error("record supersedes itself")
	}
}

func TestClone(t *testing.T) {
	r := Record{Key: []byte("k"), Value: []byte("v"), Version: 9, Tombstone: true}
	c := r.Clone()
	c.Key[0] = 'x'
	c.Value[0] = 'y'
	if r.Key[0] != 'k' || r.Value[0] != 'v' {
		t.Error("Clone shares backing arrays")
	}
	if c.Version != 9 || !c.Tombstone {
		t.Error("Clone dropped fields")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(key, value []byte, version uint64, tomb bool) bool {
		r := Record{Key: key, Value: value, Version: version, Tombstone: tomb}
		got, rest, err := DecodeBinary(r.AppendBinary(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		return bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value) &&
			got.Version == version && got.Tombstone == tomb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _, _ = DecodeBinary(junk) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendBinary(b *testing.B) {
	r := Record{Key: []byte("user:12345:profile"), Value: bytes.Repeat([]byte("x"), 256), Version: 99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.AppendBinary(nil)
	}
}

// TestDecodeBinaryAllocs pins the decode's two allocations: the
// record's key and value, copied out of the input.
func TestDecodeBinaryAllocs(t *testing.T) {
	enc := Record{Key: []byte("user:12345:profile"), Value: bytes.Repeat([]byte("x"), 256), Version: 99}.AppendBinary(nil)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeBinary(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("DecodeBinary allocates %.0f times, want <= 2", allocs)
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	r := Record{Key: []byte("user:12345:profile"), Value: bytes.Repeat([]byte("x"), 256), Version: 99}
	enc := r.AppendBinary(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = DecodeBinary(enc)
	}
}

// --- wire codec (MarshalTo / Unmarshal) -----------------------------

func TestMarshalToRoundTrip(t *testing.T) {
	cases := []Record{
		{},
		{Key: []byte("k"), Value: []byte("v"), Version: 1},
		{Key: []byte("key2"), Version: 42, Tombstone: true},
		{Key: bytes.Repeat([]byte{0xAB}, 300), Value: bytes.Repeat([]byte{0xCD}, 5000), Version: 1 << 60},
	}
	for i, r := range cases {
		enc := r.MarshalTo(nil)
		if len(enc) != r.MarshaledSize() {
			t.Errorf("case %d: MarshaledSize = %d, encoded %d bytes", i, r.MarshaledSize(), len(enc))
		}
		var got Record
		rest, err := got.Unmarshal(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d leftover bytes", i, len(rest))
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, r)
		}
	}
}

// TestMarshalToConcatenation: records marshal back-to-back and
// unmarshal sequentially, as on the wire.
func TestMarshalToConcatenation(t *testing.T) {
	var buf []byte
	var want []Record
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		r := Record{Version: rng.Uint64(), Tombstone: rng.Intn(2) == 0}
		if n := rng.Intn(20); n > 0 {
			r.Key = make([]byte, n)
			rng.Read(r.Key)
		}
		if n := rng.Intn(200); n > 0 {
			r.Value = make([]byte, n)
			rng.Read(r.Value)
		}
		buf = r.MarshalTo(buf)
		want = append(want, r)
	}
	rest := buf
	for i, w := range want {
		var got Record
		var err error
		rest, err = got.Unmarshal(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(w, got) {
			t.Fatalf("record %d: %+v != %+v", i, got, w)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
}

// TestUnmarshalTruncated: every prefix of a valid encoding errors.
func TestUnmarshalTruncated(t *testing.T) {
	r := Record{Key: []byte("some-key"), Value: bytes.Repeat([]byte("v"), 64), Version: 1 << 33}
	enc := r.MarshalTo(nil)
	for n := 0; n < len(enc); n++ {
		var got Record
		if _, err := got.Unmarshal(enc[:n]); err == nil {
			t.Fatalf("truncated record at %d/%d unmarshalled", n, len(enc))
		}
	}
}

// TestUnmarshalOversizedClaims: corrupt lengths claiming more bytes
// than present must error without allocating.
func TestUnmarshalOversizedClaims(t *testing.T) {
	// flags + version + keyLen claiming 2^40.
	b := []byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f}
	var r Record
	if _, err := r.Unmarshal(b); err == nil {
		t.Fatal("absurd key length unmarshalled")
	}
	// Overlong varint for version.
	b2 := append([]byte{0}, bytes.Repeat([]byte{0x80}, 11)...)
	if _, err := r.Unmarshal(b2); err == nil {
		t.Fatal("overlong version varint unmarshalled")
	}
}

func FuzzUnmarshal(f *testing.F) {
	f.Add(Record{Key: []byte("k"), Value: []byte("v"), Version: 9}.MarshalTo(nil))
	f.Add(Record{Tombstone: true}.MarshalTo(nil))
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Record
		rest, err := r.Unmarshal(b)
		if err != nil {
			return
		}
		consumed := len(b) - len(rest)
		again := r.MarshalTo(nil)
		var r2 Record
		if _, err := r2.Unmarshal(again); err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("re-encode not stable: %+v != %+v", r2, r)
		}
		if r.MarshaledSize() != consumed && r.MarshaledSize() != len(again) {
			t.Fatalf("MarshaledSize %d inconsistent (consumed %d, re-encoded %d)", r.MarshaledSize(), consumed, len(again))
		}
	})
}

func BenchmarkMarshalTo(b *testing.B) {
	r := Record{Key: []byte("user:000000000001"), Value: bytes.Repeat([]byte("v"), 128), Version: 1 << 40}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.MarshalTo(buf[:0])
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	enc := Record{Key: []byte("user:000000000001"), Value: bytes.Repeat([]byte("v"), 128), Version: 1 << 40}.MarshalTo(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r Record
		if _, err := r.Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}
