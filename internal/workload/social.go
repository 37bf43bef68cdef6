package workload

import (
	"fmt"
	"math/rand"

	"scads/internal/row"
)

// OpKind enumerates the social-application request classes (the
// CloudStone-style mix of §3.4).
type OpKind int

// Request classes. Read-heavy by default, matching social sites.
const (
	OpViewProfile OpKind = iota
	OpViewFriends
	OpViewBirthdays
	OpAddFriend
	OpRemoveFriend
	OpUpdateProfile
	OpNewUser
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpViewProfile:
		return "view-profile"
	case OpViewFriends:
		return "view-friends"
	case OpViewBirthdays:
		return "view-birthdays"
	case OpAddFriend:
		return "add-friend"
	case OpRemoveFriend:
		return "remove-friend"
	case OpUpdateProfile:
		return "update-profile"
	case OpNewUser:
		return "new-user"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one generated request.
type Op struct {
	Kind   OpKind
	UserID string
	Friend string // for friend ops
	Row    row.Row
}

// Mix is a weighted operation distribution.
type Mix struct {
	ViewProfile   int
	ViewFriends   int
	ViewBirthdays int
	AddFriend     int
	RemoveFriend  int
	UpdateProfile int
	NewUser       int
}

// ReadHeavyMix is the default social mix (~90% reads).
var ReadHeavyMix = Mix{
	ViewProfile:   45,
	ViewFriends:   25,
	ViewBirthdays: 20,
	AddFriend:     4,
	RemoveFriend:  1,
	UpdateProfile: 4,
	NewUser:       1,
}

// WriteHeavyMix models spike events like post-Halloween photo uploads
// (§2.1): a significant percentage of writes.
var WriteHeavyMix = Mix{
	ViewProfile:   25,
	ViewFriends:   15,
	ViewBirthdays: 10,
	AddFriend:     10,
	RemoveFriend:  2,
	UpdateProfile: 35,
	NewUser:       3,
}

func (m Mix) total() int {
	return m.ViewProfile + m.ViewFriends + m.ViewBirthdays +
		m.AddFriend + m.RemoveFriend + m.UpdateProfile + m.NewUser
}

// Social generates a deterministic synthetic social graph and request
// stream over it. Degrees are bounded by MaxFriends — the Facebook
// 5000-friend cap the paper leans on for the O(K) argument.
type Social struct {
	rnd        *rand.Rand
	users      int
	maxFriends int
	mix        Mix
	// degree tracks current friend counts to respect the cap.
	degree []int
	nextID int
}

// NewSocial returns a generator over `users` initial users with
// degrees capped at maxFriends.
func NewSocial(seed int64, users, maxFriends int, mix Mix) *Social {
	if users < 2 {
		users = 2
	}
	if maxFriends < 1 {
		maxFriends = 5000
	}
	if mix.total() == 0 {
		mix = ReadHeavyMix
	}
	return &Social{
		rnd:        rand.New(rand.NewSource(seed)),
		users:      users,
		maxFriends: maxFriends,
		mix:        mix,
		degree:     make([]int, users),
		nextID:     users,
	}
}

// UserID formats the i-th user's ID.
func UserID(i int) string { return fmt.Sprintf("user%08d", i) }

// ProfileRow synthesizes the i-th user's profile row. Birthdays are
// day-of-year (1..365) so the birthday index has realistic collisions.
func (s *Social) ProfileRow(i int) row.Row {
	return row.Row{
		"id":       UserID(i),
		"name":     fmt.Sprintf("User %d", i),
		"birthday": int64(i%365 + 1),
	}
}

// SeedGraph produces an initial friendship edge list with a skewed
// (preferential-attachment-flavoured) degree distribution capped at
// MaxFriends. Edges are emitted in both directions, matching the
// symmetric friendships of the paper's example.
func (s *Social) SeedGraph(avgFriends int) [][2]string {
	if avgFriends < 1 {
		avgFriends = 1
	}
	var edges [][2]string
	seen := make(map[[2]int]bool)
	target := s.users * avgFriends / 2
	attempts := 0
	for len(edges)/2 < target && attempts < target*20 {
		attempts++
		a := s.rnd.Intn(s.users)
		// Preferential: half the time pick a neighbour-of-popular node.
		b := s.rnd.Intn(s.users)
		if s.rnd.Intn(2) == 0 {
			b = s.rnd.Intn(s.users/10 + 1) // popular cluster
		}
		if a == b || seen[[2]int{a, b}] || seen[[2]int{b, a}] {
			continue
		}
		if s.degree[a] >= s.maxFriends || s.degree[b] >= s.maxFriends {
			continue
		}
		seen[[2]int{a, b}] = true
		s.degree[a]++
		s.degree[b]++
		edges = append(edges, [2]string{UserID(a), UserID(b)}, [2]string{UserID(b), UserID(a)})
	}
	return edges
}

// Next generates one operation according to the mix.
func (s *Social) Next() Op {
	pick := s.rnd.Intn(s.mix.total())
	user := s.rnd.Intn(s.users)
	uid := UserID(user)
	take := func(n int) bool {
		if pick < n {
			return true
		}
		pick -= n
		return false
	}
	switch {
	case take(s.mix.ViewProfile):
		return Op{Kind: OpViewProfile, UserID: uid}
	case take(s.mix.ViewFriends):
		return Op{Kind: OpViewFriends, UserID: uid}
	case take(s.mix.ViewBirthdays):
		return Op{Kind: OpViewBirthdays, UserID: uid}
	case take(s.mix.AddFriend):
		other := s.rnd.Intn(s.users)
		if other == user {
			other = (other + 1) % s.users
		}
		if s.degree[user] >= s.maxFriends || s.degree[other] >= s.maxFriends {
			return Op{Kind: OpViewFriends, UserID: uid} // cap reached: degrade to a read
		}
		s.degree[user]++
		s.degree[other]++
		return Op{Kind: OpAddFriend, UserID: uid, Friend: UserID(other)}
	case take(s.mix.RemoveFriend):
		other := s.rnd.Intn(s.users)
		if other == user {
			other = (other + 1) % s.users
		}
		if s.degree[user] > 0 {
			s.degree[user]--
		}
		if s.degree[other] > 0 {
			s.degree[other]--
		}
		return Op{Kind: OpRemoveFriend, UserID: uid, Friend: UserID(other)}
	case take(s.mix.UpdateProfile):
		r := s.ProfileRow(user)
		r["birthday"] = int64(s.rnd.Intn(365) + 1)
		return Op{Kind: OpUpdateProfile, UserID: uid, Row: r}
	default:
		id := s.nextID
		s.nextID++
		s.users++
		s.degree = append(s.degree, 0)
		return Op{Kind: OpNewUser, UserID: UserID(id), Row: row.Row{
			"id":       UserID(id),
			"name":     fmt.Sprintf("User %d", id),
			"birthday": int64(id%365 + 1),
		}}
	}
}
