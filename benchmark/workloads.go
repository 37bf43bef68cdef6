package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"scads/internal/row"
	"scads/internal/workload"
)

// numClients is the number of load-generating goroutines: the sandbox
// has two cores, and the TCP transport holds one multiplexed
// connection per node.
const numClients = 2

// usersDDL is the schema of the three users-only workloads: a row is
// about 200 bytes, and counter carries update_heavy's per-key write
// sequence.
const usersDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int,
    bio string,
    counter int
)
`

// socialDDL is the paper's section 3.2 schema, as scads-loadgen
// declares it.
const socialDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
QUERY friends
SELECT * FROM friendships WHERE f1 = ?user LIMIT 5000
QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`

const (
	friendsLimit   = 5000
	birthdaysLimit = 50
	bioBytes       = 150
	zipfS          = 1.1
)

// workloadDef is one named workload. The names are the reference for
// every later change that quotes a number from this benchmark.
type workloadDef struct {
	name string
	why  string
	rf   int
	// rows is the users-table size at full scale; tinyRows at -scale tiny.
	rows, tinyRows int
	zipfian        bool
	writeFrac      float64
	social         bool
	// streamRate bounds what one closed-loop client can send, in ops
	// per second: two to three times what the sandbox sustains. It
	// sizes the pre-built stream and the sample buffer.
	streamRate int
}

// maxOps is the most ops one client sends in span.
func (w workloadDef) maxOps(span time.Duration) int {
	return int(float64(w.streamRate)*span.Seconds()) + 1
}

// wraps reports whether a client may start its stream over when it
// runs out: only a read-only stream, whose ops carry no sequence. A
// stream with writes ends its client's run early instead.
func (w workloadDef) wraps() bool { return w.writeFrac == 0 && !w.social }

var workloadDefs = []workloadDef{
	{
		name: "point_read_hot",
		why:  "zipfian gets over a table that fits the record cache: coordinator, router, wire and dispatch cost, no SSTable work",
		rf:   1, rows: 10_000, tinyRows: 1_000, zipfian: true, streamRate: 100_000,
	},
	{
		name: "point_read_cold",
		why:  "uniform gets over a table four times both caches together: bloom, index, block read and decode dominate",
		rf:   1, rows: 150_000, tinyRows: 2_000, streamRate: 60_000,
	},
	{
		name: "update_heavy",
		why:  "half gets, half full-row inserts at RF=2: WAL, memtable, invalidation, flush, compaction and replication beside reads",
		rf:   2, rows: 50_000, tinyRows: 1_000, zipfian: true, writeFrac: 0.5, streamRate: 16_000,
	},
	{
		name: "social_mix",
		why:  "the paper's schema and read-heavy mix: query planning, scatter-gather scans, view upkeep on every write, admission",
		rf:   2, rows: 2_000, tinyRows: 300, social: true, streamRate: 12_000,
	},
}

// datasetSeed fixes what set-up loads and which keys are popular. The
// run's --seed decides only the sequence of ops: measured on this
// sandbox, a different table or friendship graph moves every timing by
// 10-30%, so two runs would not be comparable if the data moved with
// the seed too.
const datasetSeed = 20090104

// socialAvgFriends is the seeded graph's mean degree (about ten
// directed edges per user).
const socialAvgFriends = 10

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func (w workloadDef) ddl() string {
	if w.social {
		return socialDDL
	}
	return usersDDL
}

func (w workloadDef) size(tiny bool) int {
	if tiny {
		return w.tinyRows
	}
	return w.rows
}

// split names the tables boot splits at their middle key.
func (w workloadDef) split(n int) map[string]string {
	mid := workload.UserID(n / 2)
	if w.social {
		return map[string]string{"users": mid, "friendships": mid}
	}
	return map[string]string{"users": mid}
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opFindUser
	opFriends
	opBirthdays
	opAddFriend
	opRemoveFriend
	opSocialUser // update-profile and new-user: a full-row insert into users
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"get", "put", "findUser", "friends", "friendsWithUpcomingBirthdays",
	"addFriend", "removeFriend", "insertUser",
}

// class is the latency class an op reports under.
type class uint8

const (
	classRead class = iota
	classWrite
	classQuery
	numClasses
)

var classNames = [numClasses]string{"read", "write", "query"}

func (k opKind) class() class {
	switch k {
	case opGet, opFindUser:
		return classRead
	case opFriends, opBirthdays:
		return classQuery
	default:
		return classWrite
	}
}

// op is one pre-built request: everything the timed loop passes to the
// system exists before timing starts.
type op struct {
	kind opKind
	// key indexes dataset.ids for users-table ops; -1 for a social
	// user created by the stream itself.
	key int32
	// counter is the per-key sequence number a put carries.
	counter int64
	// user is the id a social op is about.
	user string
	// row is the primary-key row of a get or delete, or the full row
	// of an insert; params the parameters of a query.
	row    row.Row
	params map[string]any
}

// dataset is what set-up loads: users rows, and for social_mix the
// friendship edges.
type dataset struct {
	def   workloadDef
	ids   []string
	names []string
	text  string // bios are 150-byte windows into this
	pks   []row.Row
	edges [][2]string
	// issued is the highest write counter generated so far per key.
	issued []int64
}

func (d *dataset) bio(k int) string {
	off := (k * 31) % (len(d.text) - bioBytes)
	return d.text[off : off+bioBytes]
}

func birthdayOf(k int) int64 { return int64(k%365 + 1) }

// userRow is the row set-up loads for key k, with counter 0.
func (d *dataset) userRow(k int, counter int64) row.Row {
	if d.def.social {
		return row.Row{"id": d.ids[k], "name": d.names[k], "birthday": birthdayOf(k)}
	}
	return row.Row{
		"id": d.ids[k], "name": d.names[k], "birthday": birthdayOf(k),
		"bio": d.bio(k), "counter": counter,
	}
}

// userBytes is the encoded size of the loaded rows, the "user bytes"
// the space and write-amplification ratios divide by.
func (d *dataset) userBytes() (int64, error) {
	var total int64
	var buf []byte
	for k := range d.ids {
		var err error
		buf, err = row.AppendEncode(buf[:0], d.userRow(k, 0))
		if err != nil {
			return 0, err
		}
		total += int64(len(buf))
	}
	for _, e := range d.edges {
		total += int64(len(e[0]) + len(e[1]) + 8)
	}
	return total, nil
}

func newDataset(def workloadDef, seed int64, tiny bool) *dataset {
	n := def.size(tiny)
	d := &dataset{def: def, ids: make([]string, n), names: make([]string, n), pks: make([]row.Row, n)}
	rnd := rand.New(rand.NewSource(datasetSeed))
	text := make([]byte, 4096)
	for i := range text {
		text[i] = byte('a' + rnd.Intn(26))
	}
	d.text = string(text)
	for k := 0; k < n; k++ {
		d.ids[k] = workload.UserID(k)
		d.names[k] = fmt.Sprintf("User %d", k)
		d.pks[k] = row.Row{"id": d.ids[k]}
	}
	return d
}

// streams is the whole pre-built input of one run.
type streams struct {
	clients [][]op // one op stream per closed-loop client
	hash    uint64
}

// keyPicker draws key indexes for one client. Clients own disjoint
// halves of the table (interleaved through a seeded permutation, so
// hot keys spread over both nodes and both clients): a key then has
// one writer, and its last acknowledged write is well defined.
type keyPicker struct {
	rnd     *rand.Rand
	zipf    *rand.Zipf
	perm    []int32
	client  int
	clients int
	span    int
}

func newKeyPicker(seed int64, perm []int32, client, clients int, zipfian bool) *keyPicker {
	p := &keyPicker{
		rnd:  rand.New(rand.NewSource(seed + int64(client)*7919)),
		perm: perm, client: client, clients: clients, span: len(perm) / clients,
	}
	if zipfian {
		p.zipf = rand.NewZipf(p.rnd, zipfS, 1, uint64(p.span-1))
	}
	return p
}

func (p *keyPicker) next() int32 {
	var rank int
	if p.zipf != nil {
		rank = int(p.zipf.Uint64())
	} else {
		rank = p.rnd.Intn(p.span)
	}
	return p.perm[rank*p.clients+p.client]
}

// genStreams builds one op stream per client from the seed, perClient
// ops each. Successive calls on one dataset continue the per-key write
// counters, so a run may drive several streams one after another.
func genStreams(d *dataset, seed int64, clients, perClient int) *streams {
	if d.def.social {
		return genSocialStreams(d, seed, clients, perClient)
	}
	n := len(d.ids)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rand.New(rand.NewSource(datasetSeed)).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	if d.issued == nil {
		d.issued = make([]int64, n)
	}
	st := &streams{clients: make([][]op, clients)}
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		pick := newKeyPicker(seed, perm, c, clients, d.def.zipfian)
		ops := make([]op, perClient)
		for i := range ops {
			k := pick.next()
			if pick.rnd.Float64() < d.def.writeFrac {
				d.issued[k]++
				ops[i] = op{kind: opPut, key: k, counter: d.issued[k], row: d.userRow(int(k), d.issued[k])}
			} else {
				ops[i] = op{kind: opGet, key: k, row: d.pks[k]}
			}
			hashOp(h, &ops[i])
		}
		st.clients[c] = ops
	}
	st.hash = h.Sum64()
	return st
}

// genSocialStreams draws ops from workload.Social with the read-heavy
// mix and deals them to the clients in turn. The first call also draws
// the dataset's seed graph from the same generator.
func genSocialStreams(d *dataset, seed int64, clients, perClient int) *streams {
	if d.edges == nil {
		d.edges = workload.NewSocial(datasetSeed, len(d.ids), friendsLimit, workload.ReadHeavyMix).SeedGraph(socialAvgFriends)
	}
	gen := workload.NewSocial(seed, len(d.ids), friendsLimit, workload.ReadHeavyMix)
	st := &streams{clients: make([][]op, clients)}
	for c := range st.clients {
		st.clients[c] = make([]op, 0, perClient)
	}
	h := fnv.New64a()
	for i := 0; i < clients*perClient; i++ {
		g := gen.Next()
		o := op{key: -1, user: g.UserID}
		switch g.Kind {
		case workload.OpViewProfile:
			o.kind, o.params = opFindUser, map[string]any{"user": g.UserID}
		case workload.OpViewFriends:
			o.kind, o.params = opFriends, map[string]any{"user": g.UserID}
		case workload.OpViewBirthdays:
			o.kind, o.params = opBirthdays, map[string]any{"user": g.UserID}
		case workload.OpAddFriend:
			o.kind, o.row = opAddFriend, row.Row{"f1": g.UserID, "f2": g.Friend}
		case workload.OpRemoveFriend:
			o.kind, o.row = opRemoveFriend, row.Row{"f1": g.UserID, "f2": g.Friend}
		default: // update-profile, new-user
			o.kind, o.row = opSocialUser, g.Row
		}
		hashOp(h, &o)
		h.Write([]byte(g.Friend))
		st.clients[i%clients] = append(st.clients[i%clients], o)
	}
	st.hash = h.Sum64()
	return st
}

func hashOp(h io.Writer, o *op) {
	var b [17]byte
	b[0] = byte(o.kind)
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	}
	put64(1, uint64(int64(o.key)))
	put64(9, uint64(o.counter))
	h.Write(b[:])
	h.Write([]byte(o.user))
	if bd, ok := o.row["birthday"].(int64); ok {
		put64(1, uint64(bd))
		h.Write(b[1:9])
	}
}
