// Package session implements Terry-style session guarantees (paper
// §3.3.1): read-your-writes and monotonic reads, the "two most common
// cases required by web applications". A Session records version
// floors from the client's own activity; the coordinator uses them to
// decide whether a replica's answer is acceptable or whether it must
// fail over to a fresher replica (ultimately the primary, which always
// has the session's own writes).
package session

import (
	"sync"

	"scads/internal/consistency"
)

// Session carries one client's consistency context. Safe for
// concurrent use by the handlers serving that client.
type Session struct {
	level consistency.SessionLevel

	mu     sync.Mutex
	tenant string
	floors map[floorKey]floor
}

type floorKey struct {
	namespace string
	key       string
}

type floor struct {
	version uint64
	// deleted records that the session's own latest write was a
	// tombstone, so a miss is the *expected* read.
	deleted bool
}

// New returns a session enforcing the given guarantee level.
func New(level consistency.SessionLevel) *Session {
	return &Session{level: level, floors: make(map[floorKey]floor)}
}

// Level returns the session's guarantee level.
func (s *Session) Level() consistency.SessionLevel { return s.level }

// BindTenant attaches an admission-control tenant identity to the
// session; every operation issued through the session is accounted to
// that tenant's quotas and priority class. Nil-safe no-op.
func (s *Session) BindTenant(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tenant = tenant
	s.mu.Unlock()
}

// Tenant returns the bound tenant identity ("" = default tenant).
func (s *Session) Tenant() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenant
}

// ObserveWrite records that this session wrote key at version.
// Relevant only for read-your-writes.
func (s *Session) ObserveWrite(namespace string, key []byte, version uint64, deleted bool) {
	if s == nil || s.level != consistency.ReadYourWrites {
		return
	}
	s.raise(namespace, key, version, deleted)
}

// ObserveRead records that this session read key at version (found
// reports whether the key existed). Maintains monotonic reads, which
// read-your-writes subsumes here.
func (s *Session) ObserveRead(namespace string, key []byte, version uint64, found bool) {
	if s == nil || s.level == consistency.SessionNone {
		return
	}
	if !found {
		return // a miss imposes no floor
	}
	s.raise(namespace, key, version, false)
}

func (s *Session) raise(namespace string, key []byte, version uint64, deleted bool) {
	k := floorKey{namespace, string(key)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.floors[k]; !ok || version > cur.version {
		s.floors[k] = floor{version: version, deleted: deleted}
	}
}

// Acceptable reports whether a read result (version, found) satisfies
// the session's floor for key. Nil sessions accept everything.
func (s *Session) Acceptable(namespace string, key []byte, version uint64, found bool) bool {
	if s == nil || s.level == consistency.SessionNone {
		return true
	}
	s.mu.Lock()
	f, ok := s.floors[floorKey{namespace, string(key)}]
	s.mu.Unlock()
	if !ok {
		return true
	}
	if !found {
		// A miss is acceptable only when the session's own latest
		// write was a delete.
		return f.deleted
	}
	return version >= f.version
}
