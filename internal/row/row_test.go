package row

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/keycodec"
	"scads/internal/record"
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

// randomResult draws the records of one result: up to eight rows, most
// of one shape whose values repeat from row to row or not, over every
// column type, with now and then a row of another shape.
func randomResult(rng *rand.Rand) []record.Record {
	shape := randomRow(rng)
	recs := make([]record.Record, rng.Intn(9))
	for i := range recs {
		r := shape.Clone()
		if rng.Intn(6) == 0 {
			r = randomRow(rng)
		}
		for k := range r {
			if rng.Intn(3) != 0 {
				continue
			}
			switch v := r[k].(type) { // a distinct value in this row
			case string:
				r[k] = v + "'"
			case int64:
				r[k] = v + 1
			case float64:
				r[k] = v + 1
			case bool:
				r[k] = !v
			case time.Time:
				r[k] = v.Add(time.Second)
			}
		}
		enc, err := Encode(r)
		if err != nil {
			panic(err)
		}
		recs[i] = record.Record{Key: []byte{byte(i)}, Value: enc}
	}
	return recs
}

// decodeEach decodes recs one row at a time, as DecodeAll must agree.
func decodeEach(recs []record.Record) ([]Row, error) {
	out := make([]Row, len(recs))
	for i, rec := range recs {
		var err error
		if out[i], err = Decode(rec.Value); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Property: DecodeAll equals Decode row by row over random results —
// repeated and distinct values, every column type, empty results — and
// owns its memory like Decode does.
func TestDecodeAllMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(20100110))
	for i := 0; i < 500; i++ {
		recs := randomResult(rng)
		want, err := decodeEach(recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAll(recs)
		if err != nil {
			t.Fatalf("result %d: DecodeAll: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("result %d: DecodeAll = %d rows, want %d", i, len(got), len(want))
		}
		for _, rec := range recs {
			for j := range rec.Value {
				rec.Value[j] ^= 0xA5
			}
		}
		for j := range want {
			if !Equal(got[j], want[j]) {
				t.Fatalf("result %d row %d: DecodeAll %v, Decode %v", i, j, got[j], want[j])
			}
		}
	}
}

// TestDecodeAllRowsAreSeparate: rows that share their bytes and their
// boxed values are still separate maps.
func TestDecodeAllRowsAreSeparate(t *testing.T) {
	var recs []record.Record
	for _, f2 := range []string{"bob", "carol"} {
		enc, err := Encode(Row{"f1": "alice", "f2": f2, "since": int64(2009)})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record.Record{Value: enc})
	}
	rows, err := DecodeAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	rows[0]["f1"] = "zed"
	rows[0]["since"] = int64(1)
	delete(rows[0], "f2")
	rows[0]["extra"] = true
	if want := (Row{"f1": "alice", "f2": "carol", "since": int64(2009)}); !Equal(rows[1], want) {
		t.Fatalf("rows[1] = %v after changing rows[0], want %v", rows[1], want)
	}
}

// TestDecodeAllCorrupt: a corrupt or truncated row anywhere in a
// result fails the whole result with ErrCorrupt.
func TestDecodeAllCorrupt(t *testing.T) {
	good, err := Encode(Row{"id": "user:1", "n": int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		for _, recs := range [][]record.Record{
			{{Value: good[:n]}},
			{{Value: good}, {Value: good[:n]}},
			{{Value: good[:n]}, {Value: good}},
		} {
			if _, err := DecodeAll(recs); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d-byte prefix of a %d-byte row: err = %v, want ErrCorrupt", n, len(good), err)
			}
		}
	}
	for _, bad := range [][]byte{append(slices.Clone(good), 0), {1, 1, 'a', 0x7F}, {200, 1, 'a', valTrue}} {
		if _, err := DecodeAll([]record.Record{{Value: good}, {Value: bad}}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeAll with % x = %v, want ErrCorrupt", bad, err)
		}
	}
}

// FuzzDecodeAll: a two-row result decodes exactly when each row does on
// its own, to the rows Decode gives, and fails with ErrCorrupt when not.
func FuzzDecodeAll(f *testing.F) {
	mixed4, _ := Encode(Row{"id": "user:12345", "name": "Alice Smith", "birthday": int64(19840105), "active": true})
	friend := func(f2 string) []byte {
		enc, _ := Encode(Row{"f1": "user000", "f2": f2, "at": time.Unix(1230768000, 5).UTC(), "w": 0.5})
		return enc
	}
	f.Add(mixed4, mixed4)
	f.Add(friend("user001"), friend("user002"))
	f.Add(friend("user001"), mixed4)
	f.Add([]byte{0}, []byte{})
	f.Add([]byte{1, 1, 'a', valString, 9, 'x'}, mixed4)
	f.Add(mixed4[:len(mixed4)-1], []byte{200, 1, 'a', valTrue})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		recs := []record.Record{{Value: a}, {Value: b}}
		want, wantErr := decodeEach(recs)
		got, err := DecodeAll(recs)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeAll err = %v, Decode err = %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeAll err = %v, want ErrCorrupt", err)
			}
			return
		}
		for i := range want {
			if !Equal(got[i], want[i]) {
				t.Fatalf("row %d: DecodeAll %v, Decode %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzColumns: Columns accepts exactly the rows Decode accepts, failing
// with Decode's error, and then reads every column Decode gives: its
// value, the key element and a projection of it decode as Decode's
// do. name is a column the row may lack.
func FuzzColumns(f *testing.F) {
	mixed4, _ := Encode(Row{"id": "user:12345", "name": "Alice Smith", "birthday": int64(-19840105), "active": true})
	wide, _ := Encode(Row{"f1": "us\x00er", "at": time.Unix(-1230768000, 5).UTC(), "w": -0.5, "off": false, "n": int64(1) << 62})
	f.Add(mixed4, "name")
	f.Add(wide, "at")
	f.Add(wide, "absent")
	f.Add([]byte{2, 1, 'a', valInt, 2, 1, 'a', valTrue}, "a") // a repeated name
	f.Add([]byte{1, 1, 'a', valFloat, 0, 0, 0, 0, 0, 0, 0, 0xf8}, "a")
	f.Add([]byte{0}, "")
	f.Add([]byte{1, 1, 'a', valString, 9, 'x'}, "a")
	f.Add(mixed4[:len(mixed4)-1], "id")
	f.Add(append(slices.Clone(mixed4), 0), "id")
	f.Add([]byte{1, 1, 'a', valTime, 2, 0x80, 0x94, 0xeb, 0xdc, 0x03}, "a")
	f.Fuzz(func(t *testing.T, b []byte, name string) {
		want, wantErr := Decode(b)
		var c Columns
		err := c.Reset(b)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Reset err = %v, Decode err = %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Reset err = %v, want ErrCorrupt", err)
			}
			return
		}
		if _, ok := c.Value(name); ok != (want[name] != nil) {
			t.Fatalf("Value(%q) found %v, Decode's row %v", name, ok, want)
		}
		names := []string{name}
		for n, v := range want {
			enc, ok := c.Value(n)
			if !ok {
				t.Fatalf("Value(%q) not found in %v", n, want)
			}
			one, err := Decode(AppendColumnValue([]byte{1}, n, enc))
			if err != nil || !sameRow(one, Row{n: v}) {
				t.Fatalf("column %q reads %v, %v; Decode gives %v", n, one, err, v)
			}
			for _, desc := range []bool{false, true} {
				if key, err := keycodec.AppendElem(nil, v, desc); err != nil || !bytes.Equal(AppendKeyElem(nil, enc, desc), key) {
					t.Fatalf("column %q desc=%v: key element %x, keycodec %x (%v)", n, desc, AppendKeyElem(nil, enc, desc), key, err)
				}
			}
			if len(names) < 3 {
				names = append(names, n)
			}
		}
		projected, err := Decode(c.AppendProject(nil, names))
		if err != nil || !sameRow(projected, Project(want, names)) {
			t.Fatalf("projection on %q = %v, %v; want %v", names, projected, err, Project(want, names))
		}
	})
}

// sameRow reports whether a and b encode alike, which tells a NaN from
// itself by its bits where Equal cannot.
func sameRow(a, b Row) bool {
	ea, err := Encode(a)
	if err != nil {
		return false
	}
	eb, err := Encode(b)
	return err == nil && bytes.Equal(ea, eb)
}

// TestColumnsAllocs: once its span storage has grown, a Columns reads
// a row and finds, projects and key-encodes its columns allocating
// nothing.
func TestColumnsAllocs(t *testing.T) {
	enc, err := Encode(Row{"id": "user00001234", "name": "User Number 1234", "birthday": int64(19840105),
		"bio": strings.Repeat("b", 150), "counter": int64(123456)})
	if err != nil {
		t.Fatal(err)
	}
	var c Columns
	buf := make([]byte, 0, 512)
	read := func() {
		if err := c.Reset(enc); err != nil {
			t.Fatal(err)
		}
		v, ok := c.Value("birthday")
		if !ok {
			t.Fatal("no birthday")
		}
		buf = c.AppendProject(AppendKeyElem(buf[:0], v, true), []string{"id", "name"})
	}
	read()
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Errorf("Columns reads a row in %.0f allocations, want 0", allocs)
	}
}

// TestCodecAllocs pins the row codec's allocations at their counts:
// Encode of a 4-column row, Decode of it and of the ledger's users row
// (see BenchmarkDecode), and DecodeAll of a ten-row result.
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
	// A result of ten friendships of one user, measured 33: its bytes,
	// its slice, and per row the map's two allocations and the f2 box;
	// the repeated f1 is boxed once. Ten Decodes into a slice make 51.
	friends := make([]record.Record, 10)
	for i := range friends {
		enc, err := Encode(Row{"f1": "user000", "f2": fmt.Sprintf("user%03d", i+1)})
		if err != nil {
			t.Fatal(err)
		}
		friends[i].Value = enc
	}
	decodeAll := testing.AllocsPerRun(200, func() {
		if _, err := DecodeAll(friends); err != nil {
			t.Fatal(err)
		}
	})
	if decodeAll > 33 {
		t.Errorf("DecodeAll(10 friends) allocates %.0f times, want <= 33", decodeAll)
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
