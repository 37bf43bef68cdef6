package workload

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func TestConstant(t *testing.T) {
	c := Constant(500)
	if c.Rate(t0) != 500 || c.Rate(t0.Add(time.Hour)) != 500 {
		t.Fatal("Constant not constant")
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Base: 1000, Amplitude: 500, PeakHour: 14}
	peak := d.Rate(time.Date(2009, 1, 4, 14, 0, 0, 0, time.UTC))
	trough := d.Rate(time.Date(2009, 1, 4, 2, 0, 0, 0, time.UTC))
	if math.Abs(peak-1500) > 1 {
		t.Fatalf("peak = %v", peak)
	}
	if math.Abs(trough-500) > 1 {
		t.Fatalf("trough = %v", trough)
	}
	// Never negative even with amplitude > base.
	d2 := Diurnal{Base: 100, Amplitude: 500}
	for h := 0; h < 24; h++ {
		if d2.Rate(time.Date(2009, 1, 4, h, 0, 0, 0, time.UTC)) < 0 {
			t.Fatal("negative rate")
		}
	}
}

func TestSpikeEnvelope(t *testing.T) {
	at := t0.Add(12 * time.Hour)
	s := Spike{
		Baseline:  Constant(1000),
		At:        at,
		Rise:      10 * time.Minute,
		Duration:  2 * time.Hour,
		Magnitude: 5,
	}
	if got := s.Rate(at.Add(-time.Hour)); got != 1000 {
		t.Fatalf("pre-spike = %v", got)
	}
	if got := s.Rate(at.Add(10 * time.Minute)); math.Abs(got-5000) > 1 {
		t.Fatalf("peak = %v", got)
	}
	mid := s.Rate(at.Add(10*time.Minute + time.Hour))
	if !(1000 < mid && mid < 5000) {
		t.Fatalf("decay = %v", mid)
	}
	if got := s.Rate(at.Add(3 * time.Hour)); got != 1000 {
		t.Fatalf("post-spike = %v", got)
	}
	// Half-way up the rise.
	if got := s.Rate(at.Add(5 * time.Minute)); math.Abs(got-3000) > 1 {
		t.Fatalf("mid-rise = %v", got)
	}
}

func TestViralDoubles(t *testing.T) {
	v := Viral{Start: t0, InitialRate: 100, DoublingTime: 12 * time.Hour}
	if got := v.Rate(t0.Add(-time.Hour)); got != 100 {
		t.Fatalf("pre-start = %v", got)
	}
	if got := v.Rate(t0.Add(12 * time.Hour)); math.Abs(got-200) > 0.1 {
		t.Fatalf("one doubling = %v", got)
	}
	if got := v.Rate(t0.Add(24 * time.Hour)); math.Abs(got-400) > 0.1 {
		t.Fatalf("two doublings = %v", got)
	}
	capped := Viral{Start: t0, InitialRate: 100, DoublingTime: time.Hour, Saturation: 1000}
	if got := capped.Rate(t0.Add(100 * time.Hour)); got != 1000 {
		t.Fatalf("saturation = %v", got)
	}
}

func TestAnimotoTraceMatchesFigure1(t *testing.T) {
	const perServer = 1000.0
	tr := AnimotoTrace(t0, perServer)
	// At t0: enough load for ~50 servers at 70% utilisation.
	servers := func(at time.Time) float64 {
		return tr.Rate(at) / (perServer * 0.7)
	}
	if got := servers(t0); math.Abs(got-50) > 2 {
		t.Fatalf("initial servers = %v, want ~50", got)
	}
	// Three days later: ~3400 servers (the Figure 1 endpoint).
	if got := servers(t0.Add(72 * time.Hour)); math.Abs(got-3400)/3400 > 0.05 {
		t.Fatalf("72h servers = %v, want ~3400", got)
	}
	// Monotone non-decreasing ramp.
	prev := 0.0
	for h := 0; h <= 72; h++ {
		r := tr.Rate(t0.Add(time.Duration(h) * time.Hour))
		if r < prev {
			t.Fatalf("ramp decreased at hour %d", h)
		}
		prev = r
	}
}

func TestSocialDeterministic(t *testing.T) {
	a := NewSocial(42, 100, 50, ReadHeavyMix)
	b := NewSocial(42, 100, 50, ReadHeavyMix)
	for i := 0; i < 200; i++ {
		opA, opB := a.Next(), b.Next()
		if opA.Kind != opB.Kind || opA.UserID != opB.UserID || opA.Friend != opB.Friend {
			t.Fatalf("divergence at op %d: %+v vs %+v", i, opA, opB)
		}
	}
}

func TestSeedGraphRespectsCap(t *testing.T) {
	s := NewSocial(7, 200, 10, ReadHeavyMix)
	edges := s.SeedGraph(8)
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	deg := map[string]int{}
	seen := map[[2]string]bool{}
	for _, e := range edges {
		if e[0] == e[1] {
			t.Fatal("self edge")
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
		deg[e[0]]++
	}
	for u, d := range deg {
		if d > 10 {
			t.Fatalf("user %s degree %d exceeds cap 10", u, d)
		}
	}
	// Symmetric: reverse edge present.
	for _, e := range edges {
		if !seen[[2]string{e[1], e[0]}] {
			t.Fatalf("edge %v missing reverse", e)
		}
	}
}

func TestSocialOpDistribution(t *testing.T) {
	s := NewSocial(3, 1000, 5000, ReadHeavyMix)
	counts := map[OpKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.Next().Kind]++
	}
	frac := func(k OpKind) float64 { return float64(counts[k]) / n }
	if f := frac(OpViewProfile); math.Abs(f-0.45) > 0.05 {
		t.Fatalf("view-profile fraction = %v", f)
	}
	m := ReadHeavyMix
	want := float64(m.AddFriend+m.RemoveFriend+m.UpdateProfile+m.NewUser) / float64(m.total())
	writes := frac(OpAddFriend) + frac(OpRemoveFriend) + frac(OpUpdateProfile) + frac(OpNewUser)
	if math.Abs(writes-want) > 0.05 {
		t.Fatalf("write fraction = %v, want ~%v", writes, want)
	}
}

func TestSocialNewUserGrowsPopulation(t *testing.T) {
	s := NewSocial(9, 10, 100, Mix{NewUser: 1})
	before := s.users
	for i := 0; i < 50; i++ {
		op := s.Next()
		if op.Kind != OpNewUser {
			t.Fatalf("op = %v, want new-user", op.Kind)
		}
		if op.Row["id"] != op.UserID {
			t.Fatal("row id mismatch")
		}
	}
	if s.users != before+50 {
		t.Fatalf("users = %d", s.users)
	}
}

func TestSocialFriendCapDegradesToRead(t *testing.T) {
	// Cap 1: after each user has one friend, add-friend ops degrade to
	// reads rather than violating the cap.
	s := NewSocial(5, 4, 1, Mix{AddFriend: 1})
	adds := 0
	for i := 0; i < 100; i++ {
		if s.Next().Kind == OpAddFriend {
			adds++
		}
	}
	if adds > 2*4/2+2 { // at most ~degree capacity worth of adds
		t.Fatalf("adds = %d with cap 1", adds)
	}
}

func TestProfileRowShape(t *testing.T) {
	s := NewSocial(1, 10, 10, ReadHeavyMix)
	r := s.ProfileRow(7)
	if r["id"] != UserID(7) {
		t.Fatal("id mismatch")
	}
	bd := r["birthday"].(int64)
	if bd < 1 || bd > 365 {
		t.Fatalf("birthday = %d", bd)
	}
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpViewProfile, OpViewFriends, OpViewBirthdays, OpAddFriend, OpRemoveFriend, OpUpdateProfile, OpNewUser}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad/dup string for %d: %q", k, s)
		}
		seen[s] = true
	}
}
