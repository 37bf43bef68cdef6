package row

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Row{
		"id":     "user:42",
		"age":    int64(30),
		"score":  1.5,
		"active": true,
		"joined": time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC),
	}
	enc, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(r, got) {
		t.Fatalf("round trip mismatch: %v vs %v", r, got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r1 := Row{"a": int64(1), "b": "x", "c": true}
	r2 := Row{"c": true, "b": "x", "a": int64(1)}
	e1, _ := Encode(r1)
	e2, _ := Encode(r2)
	if !bytes.Equal(e1, e2) {
		t.Fatal("equal rows encoded differently")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestCheckType(t *testing.T) {
	ok := []struct {
		t Type
		v any
	}{
		{String, "s"}, {Int, int64(1)}, {Float, 1.5}, {Bool, true}, {Time, time.Now()},
	}
	for _, c := range ok {
		if err := CheckType(c.t, c.v); err != nil {
			t.Errorf("CheckType(%v, %v): %v", c.t, c.v, err)
		}
	}
	bad := []struct {
		t Type
		v any
	}{
		{String, 1}, {Int, "1"}, {Int, 1}, {Float, int64(1)}, {Bool, "true"}, {Time, int64(0)},
	}
	for _, c := range bad {
		if err := CheckType(c.t, c.v); err == nil {
			t.Errorf("CheckType(%v, %T) accepted", c.t, c.v)
		}
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(5).(int64) != 5 {
		t.Fatal("int not widened")
	}
	if Normalize(float32(1.5)).(float64) != 1.5 {
		t.Fatal("float32 not widened")
	}
	if Normalize("s").(string) != "s" {
		t.Fatal("string changed")
	}
}

func TestParseType(t *testing.T) {
	for s, want := range map[string]Type{
		"string": String, "text": String, "int": Int, "bigint": Int,
		"float": Float, "bool": Bool, "time": Time, "timestamp": Time,
	} {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Fatal("unknown type parsed")
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{String: "string", Int: "int", Float: "float", Bool: "bool", Time: "time"} {
		if ty.String() != want {
			t.Errorf("%v.String() = %q", ty, ty.String())
		}
	}
}

func TestEncodeKeyOrdering(t *testing.T) {
	mk := func(user string, bday int64) []byte {
		k, err := EncodeKey(Row{"user": user, "bday": bday}, []string{"user", "bday"})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a := mk("alice", 100)
	b := mk("alice", 200)
	c := mk("bob", 50)
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Fatal("key ordering not lexicographic by column list")
	}
	if _, err := EncodeKey(Row{"user": "x"}, []string{"missing"}); err == nil {
		t.Fatal("missing key column accepted")
	}
}

func TestProject(t *testing.T) {
	r := Row{"a": int64(1), "b": "x", "c": true}
	p := Project(r, []string{"a", "c"})
	if len(p) != 2 || p["a"] != int64(1) || p["c"] != true {
		t.Fatalf("Project = %v", p)
	}
	all := Project(r, nil)
	if !Equal(all, r) {
		t.Fatal("empty projection is not identity")
	}
	// Projection is a copy.
	all["a"] = int64(9)
	if r["a"] != int64(1) {
		t.Fatal("Project shares storage")
	}
}

func TestEqualTimes(t *testing.T) {
	utc := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	other := utc.In(time.FixedZone("X", 3600))
	if !Equal(Row{"t": utc}, Row{"t": other}) {
		t.Fatal("equal instants in different zones not Equal")
	}
	if Equal(Row{"t": utc}, Row{"t": utc.Add(time.Second)}) {
		t.Fatal("different instants Equal")
	}
	if Equal(Row{"t": utc}, Row{"t": "2009"}) {
		t.Fatal("time equal to string")
	}
	if Equal(Row{"a": int64(1)}, Row{"b": int64(1)}) {
		t.Fatal("different keys Equal")
	}
	if Equal(Row{"a": int64(1)}, Row{"a": int64(1), "b": int64(2)}) {
		t.Fatal("different sizes Equal")
	}
}

// Property: Encode/Decode round trip is identity for arbitrary typed
// rows.
func TestQuickRoundTrip(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		r := Row{"s": s, "i": i, "f": fl, "b": b}
		enc, err := Encode(r)
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return Equal(r, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	r := Row{"id": "user:12345", "name": "Alice Smith", "birthday": int64(19840105), "active": true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(r); err != nil {
			b.Fatal(err)
		}
	}
}

// randomRow draws a row of 0-11 columns over every value type.
func randomRow(rng *rand.Rand) Row {
	randString := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return string(b)
	}
	r := make(Row)
	for n := rng.Intn(12); n > 0; n-- {
		name := randString(12)
		switch rng.Intn(6) {
		case 0:
			r[name] = randString(300)
		case 1:
			r[name] = rng.Int63() - rng.Int63()
		case 2:
			r[name] = rng.NormFloat64()
		case 3:
			r[name] = rng.Intn(2) == 0
		case 4:
			r[name] = time.Unix(rng.Int63n(1<<34)-1<<33, rng.Int63n(1e9)).UTC()
		case 5:
			r[name] = ""
		}
	}
	return r
}

// Property: Decode(Encode(r)) equals r for random rows; the decoded row
// owns its memory — scribbling over the input afterwards, as the record
// cache and the response buffers that carry encoded rows do when they
// are reused, changes nothing; and every proper prefix of an encoding,
// and an encoding with an unknown value tag, is ErrCorrupt.
func TestDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20090104))
	for i := 0; i < 500; i++ {
		r := randomRow(rng)
		enc, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		in := append([]byte(nil), enc...)
		got, err := Decode(in)
		if err != nil {
			t.Fatalf("row %d: Decode(Encode(%v)): %v", i, r, err)
		}
		if !Equal(r, got) {
			t.Fatalf("row %d: round trip %v, want %v", i, got, r)
		}
		for j := range in {
			in[j] ^= 0xA5
		}
		if !Equal(r, got) {
			t.Fatalf("row %d: decoded row aliases the input buffer: now %v, want %v", i, got, r)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := Decode(enc[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("row %d: %d-byte prefix of a %d-byte encoding: err = %v, want ErrCorrupt", i, n, len(enc), err)
			}
		}
		if _, err := Decode(append(enc, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("row %d: trailing byte accepted: %v", i, err)
		}
	}
	for _, bad := range [][]byte{
		{1, 1, 'a', 0x7F},                                     // unknown value tag
		{1, 1, 'a', valString, 9, 'x'},                        // string longer than what is left
		{1, 9, 'a', valTrue},                                  // name longer than what is left
		{200, 1, 'a', valTrue},                                // more columns than bytes
		{1, 1, 'a', valTime, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, // nanoseconds out of range
		{1, 1, 'a', valFloat, 1, 2, 3},                        // short float
	} {
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode(% x) = %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestCodecAllocs pins the row codec's allocations at their counts:
// Encode of a 4-column row, and Decode of it and of the ledger's users
// row (see BenchmarkDecode).
func TestCodecAllocs(t *testing.T) {
	mixed4 := Row{"id": "user:12345", "name": "Alice Smith", "birthday": int64(19840105), "active": true}
	users5 := Row{"id": "user00001234", "name": "User Number 1234", "birthday": int64(19840105),
		"bio": strings.Repeat("b", 150), "counter": int64(123456)}
	encode := testing.AllocsPerRun(200, func() {
		if _, err := Encode(mixed4); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 1 {
		t.Errorf("Encode(mixed4) allocates %.0f times, want <= 1", encode)
	}
	for _, tc := range []struct {
		name string
		row  Row
		max  float64
	}{{"mixed4", mixed4, 6}, {"users5", users5, 8}} {
		enc, err := Encode(tc.row)
		if err != nil {
			t.Fatal(err)
		}
		decode := testing.AllocsPerRun(200, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if decode > tc.max {
			t.Errorf("Decode(%s) allocates %.0f times, want <= %.0f", tc.name, decode, tc.max)
		}
	}
}

// BenchmarkDecode: run with -benchmem. users5 is the ledger's row (the
// benchmark's users table: id, name, birthday, a 150-byte bio, counter).
func BenchmarkDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		row  Row
	}{
		{"mixed4", Row{"id": "user:12345", "name": "Alice Smith", "birthday": int64(19840105), "active": true}},
		{"users5", Row{"id": "user00001234", "name": "User Number 1234", "birthday": int64(19840105),
			"bio": strings.Repeat("b", 150), "counter": int64(123456)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			enc, _ := Encode(bc.row)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
