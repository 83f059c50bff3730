package core

// The user table behind the §5–6 analyzers. The paper's unit of
// analysis is one user's sightings over the window, and the canonical
// stream delivers each user's records back to back, so every default
// analyzer keeps its state per user: a table from user ID to that
// user's state, which remembers the last user it returned, and per
// user a few short key lists. A record of the same user as the one
// before costs no hashing at all.

// indexAt is the key-list length past which a list gets a hash index.
// Shorter lists are scanned: a user-week holds a handful of addresses,
// and comparing a few keys is cheaper than hashing one.
const indexAt = 32

// userTable maps a user ID to that user's state S and caches the last
// user it returned. The zero value is ready to use.
type userTable[S any] struct {
	m      map[uint64]*S
	lastID uint64
	last   *S
}

// get returns uid's state, creating it (added = true) on first sight.
func (t *userTable[S]) get(uid uint64) (s *S, added bool) {
	if t.last != nil && t.lastID == uid {
		return t.last, false
	}
	if s = t.m[uid]; s == nil {
		if t.m == nil {
			t.m = make(map[uint64]*S)
		}
		s, added = new(S), true
		t.m[uid] = s
	}
	t.lastID, t.last = uid, s
	return s, added
}

// len returns the number of users held.
func (t *userTable[S]) len() int { return len(t.m) }

// merge moves other's users into t: a user only other holds is adopted
// as is, and combine folds the state of a user both hold into t's.
// other must not be used afterwards.
func (t *userTable[S]) merge(other *userTable[S], combine func(into, from *S)) {
	for uid, os := range other.m {
		if s := t.m[uid]; s != nil {
			combine(s, os)
			continue
		}
		if t.m == nil {
			t.m = make(map[uint64]*S, len(other.m))
		}
		t.m[uid] = os
	}
}

// keyList is one user's distinct keys of one kind, each with a value:
// a slice scanned newest first, with a hash index once it holds more
// than indexAt keys. The zero value is ready to use.
type keyList[K comparable, V any] struct {
	keys  []K
	vals  []V
	index map[K]int32
}

// len returns the number of keys held.
func (l *keyList[K, V]) len() int { return len(l.keys) }

// find returns k's position in keys and vals, or -1.
func (l *keyList[K, V]) find(k K) int {
	if l.index != nil {
		if i, ok := l.index[k]; ok {
			return int(i)
		}
		return -1
	}
	for i := len(l.keys) - 1; i >= 0; i-- {
		if l.keys[i] == k {
			return i
		}
	}
	return -1
}

// slot returns k's value, adding k with the zero value (added = true)
// when the list does not hold it yet. The pointer is valid until the
// next key is added.
func (l *keyList[K, V]) slot(k K) (v *V, added bool) {
	i := l.find(k)
	if i < 0 {
		i, added = len(l.keys), true
		var zero V
		l.keys = append(l.keys, k)
		l.vals = append(l.vals, zero)
		if l.index != nil {
			l.index[k] = int32(i)
		} else if len(l.keys) > indexAt {
			l.index = make(map[K]int32, 2*len(l.keys))
			for j, key := range l.keys {
				l.index[key] = int32(j)
			}
		}
	}
	return &l.vals[i], added
}

// merge adds from's keys to l, folding the shorter list into the
// longer. A key both hold keeps one entry, and both (nil for a plain
// set) combines the two values into it. from must not be used
// afterwards.
func (l *keyList[K, V]) merge(from *keyList[K, V], both func(k K, into *V, from V)) {
	if len(from.keys) > len(l.keys) {
		*l, *from = *from, *l
	}
	for i, k := range from.keys {
		v, added := l.slot(k)
		switch {
		case added:
			*v = from.vals[i]
		case both != nil:
			both(k, v, from.vals[i])
		}
	}
}
