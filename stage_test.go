package scads

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scads/internal/clock"
	"scads/internal/query"
	"scads/internal/row"
)

const stageDDL = `
ENTITY readings (
    sensor string,
    seq int,
    value float,
    ok bool,
    at time,
    note string,
    PRIMARY KEY (sensor, seq)
)
`

// normalizeThenEncode stages a write the long way round: a normalized
// copy of the row, validated, then its key and its value encoded from
// the copy, each into a buffer of its own.
func normalizeThenEncode(t *query.TableDef, r row.Row) (key, val []byte, err error) {
	nr := make(row.Row, len(r))
	for col, v := range r {
		def, ok := t.Column(col)
		if !ok {
			return nil, nil, fmt.Errorf("scads: table %s has no column %q", t.Name, col)
		}
		nv := row.Normalize(v)
		if err := row.CheckType(def.Type, nv); err != nil {
			return nil, nil, fmt.Errorf("scads: table %s: %w", t.Name, err)
		}
		nr[col] = nv
	}
	for _, pk := range t.PrimaryKey {
		if _, ok := nr[pk]; !ok {
			return nil, nil, fmt.Errorf("scads: table %s: primary key column %q missing", t.Name, pk)
		}
	}
	if key, err = row.EncodeKey(nr, t.PrimaryKey); err != nil {
		return nil, nil, err
	}
	val, err = row.Encode(nr)
	return key, val, err
}

// randomReading draws a row of the readings table written with Go
// literals — int, int32 and uint32 integers, float32 floats among them
// — sparse in its non-key columns, and with at most one fault: an
// unknown column, a value of the wrong type, or a key column missing.
func randomReading(rng *rand.Rand) row.Row {
	r := row.Row{"sensor": fmt.Sprintf("s%d", rng.Intn(100))}
	switch rng.Intn(4) {
	case 0:
		r["seq"] = rng.Intn(1<<20) - 1<<19
	case 1:
		r["seq"] = int32(rng.Int63())
	case 2:
		r["seq"] = uint32(rng.Int63())
	default:
		r["seq"] = rng.Int63() - rng.Int63()
	}
	if rng.Intn(2) == 0 {
		r["value"] = float32(rng.NormFloat64())
	} else {
		r["value"] = rng.NormFloat64()
	}
	r["ok"] = rng.Intn(2) == 0
	r["at"] = time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)).UTC()
	r["note"] = string(bytes.Repeat([]byte("n"), rng.Intn(300)))
	for _, col := range []string{"value", "ok", "at", "note"} {
		if rng.Intn(3) == 0 {
			delete(r, col)
		}
	}
	switch rng.Intn(8) {
	case 0:
		r["bogus"] = 1
	case 1:
		r["note"] = rng.Intn(10)
	case 2:
		r["value"] = int64(1)
	case 3:
		delete(r, []string{"sensor", "seq"}[rng.Intn(2)])
	}
	return r
}

// TestStageMatchesNormalizeThenEncode: staging a row in place, its key
// and value encoded into one buffer, yields byte for byte the record a
// normalized copy of the row would encode to, and fails with the same
// error where that would.
func TestStageMatchesNormalizeThenEncode(t *testing.T) {
	lc, err := NewLocalCluster(1, Config{Clock: clock.NewVirtual(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(stageDDL); err != nil {
		t.Fatal(err)
	}
	def, _, err := lc.tableDef("readings")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var staged, refused int
	for i := 0; i < 2000; i++ {
		r := randomReading(rng)
		wantKey, wantVal, wantErr := normalizeThenEncode(def, r)
		rec, err := lc.stage(def, r)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("row %v: stage error %v, want %v", r, err, wantErr)
		}
		if err != nil {
			refused++
			continue
		}
		staged++
		if !bytes.Equal(rec.Key, wantKey) || !bytes.Equal(rec.Value, wantVal) {
			t.Fatalf("row %v: staged key %x value %x, want %x %x", r, rec.Key, rec.Value, wantKey, wantVal)
		}
		if cap(rec.Key) != len(rec.Key) {
			t.Fatalf("row %v: the staged key has room to grow into its value", r)
		}
	}
	if staged == 0 || refused == 0 {
		t.Fatalf("%d rows staged, %d refused: the draw missed a case", staged, refused)
	}
}
