package core

// The user table behind the §5–6 analyzers. The paper's unit of
// analysis is one user's sightings over the window, and the canonical
// stream delivers each user's records back to back, so every default
// analyzer keeps its state per user: a table from user ID to that
// user's state, which remembers the last user it returned, and per
// user a few short key lists. A record of the same user as the one
// before costs no hashing at all.
//
// UserCentric, IPCentric, Lifespans and ChurnAttribution keep no
// cross-user state beside the table. Their cross-user answers, such as
// a prefix's user population or a churn cause's share of new pairs,
// are counted from the users' lists when queried, so Observe touches
// only the current user's lists and Merge is a union of tables.
// Prevalence alone also keeps cross-user tallies: each ASN's and
// country's users and each day's requests.
//
// None of this state holds a pointer per user or per key, so the GC
// never traces it. The table maps a user ID to an int32 index into
// chunks of by-value states, and a state's key lists are keyList
// handles — {chunk, off, n, cap} — into a keyPool: chunks of keys and
// values shared by one field of every user of one analyzer. The heap
// objects are the chunks, not the users or keys. Merge adopts another
// replica's chunks wholesale and rebases the handles of the users it
// takes over, so it costs O(chunks + users), not O(keys).
//
// Keys and values are kept as narrow as the analyses allow. An address
// or prefix is stored as its masked prefix's two 64-bit words, an
// addrKey of 16 bytes instead of netaddr.Addr's 24. Every pool holds
// one family, which its analyzer knows, so queries rebuild the address
// from key and pool family. A day is stored as an int32, the width the
// record format stores it in, not as an 8-byte simtime.Day.

import "userv6/internal/netaddr"

// addrKey is a masked address or prefix without its family: the key
// of every address and prefix pool. A pool holds keys of one family,
// so keyOf and addr convert between the two without loss.
type addrKey struct{ hi, lo uint64 }

// keyOf returns a's key.
func keyOf(a netaddr.Addr) addrKey {
	hi, lo := a.Words()
	return addrKey{hi, lo}
}

// addr returns the address of family fam that k was taken from.
func (k addrKey) addr(fam netaddr.Family) netaddr.Addr {
	if fam == netaddr.IPv4 {
		return netaddr.AddrFrom4(uint32(k.lo))
	}
	return netaddr.AddrFrom6(k.hi, k.lo)
}

// hash mixes both of k's words into its high bits, which pick k's
// partition when IPCentric counts prefix populations.
func (k addrKey) hash() uint64 {
	return (k.hi ^ k.lo*0x9e3779b97f4a7c15) * 0xd6e8feb86659fd93
}

// indexAt is the key-list length past which a list gets a hash index.
// Shorter lists are scanned: a user-week holds a handful of addresses,
// and comparing a few keys is cheaper than hashing one.
const indexAt = 32

// tableChunk is the number of users one chunk of a userTable holds.
const tableChunk = 1 << 10

// userTable maps a user ID to that user's row of width states S and
// caches the last user it returned. A width of 0 means 1; the zero
// value is a ready table of one state per user.
type userTable[S any] struct {
	ids map[uint64]int32
	// uids and states hold user i at uids[i/tableChunk][i%tableChunk]
	// and at row i%tableChunk of states[i/tableChunk]; chunks never
	// move, so a row stays where it is as the table grows.
	uids   [][]uint64
	states [][]S
	width  int
	lastID uint64
	last   []S
}

// w returns the number of states per user.
func (t *userTable[S]) w() int { return max(t.width, 1) }

// get returns uid's (first) state, creating the user (added = true) on
// first sight.
func (t *userTable[S]) get(uid uint64) (s *S, added bool) {
	row, added := t.row(uid)
	return &row[0], added
}

// row returns uid's states, creating them zeroed (added = true) on
// first sight.
func (t *userTable[S]) row(uid uint64) (row []S, added bool) {
	if t.last != nil && t.lastID == uid {
		return t.last, false
	}
	i, ok := t.ids[uid]
	if !ok {
		i, added = t.add(uid), true
	}
	row = t.at(i)
	t.lastID, t.last = uid, row
	return row, added
}

// add appends a user with zeroed states and returns its index.
func (t *userTable[S]) add(uid uint64) int32 {
	if t.ids == nil {
		t.ids = make(map[uint64]int32)
	}
	i := int32(len(t.ids))
	w := t.w()
	if i%tableChunk == 0 {
		t.uids = append(t.uids, make([]uint64, 0, tableChunk))
		t.states = append(t.states, make([]S, 0, tableChunk*w))
	}
	c := len(t.uids) - 1
	t.uids[c] = append(t.uids[c], uid)
	t.states[c] = t.states[c][:len(t.states[c])+w]
	t.ids[uid] = i
	return i
}

// at returns user i's states.
func (t *userTable[S]) at(i int32) []S {
	w := t.w()
	off := int(i%tableChunk) * w
	return t.states[i/tableChunk][off : off+w : off+w]
}

// len returns the number of users held.
func (t *userTable[S]) len() int { return len(t.ids) }

// eachRow calls fn with every user's ID and states, in the order the
// users were added.
func (t *userTable[S]) eachRow(fn func(uid uint64, row []S)) {
	w := t.w()
	for c, uids := range t.uids {
		states := t.states[c]
		for j, uid := range uids {
			fn(uid, states[j*w:(j+1)*w:(j+1)*w])
		}
	}
}

// each calls fn with every user's ID and (first) state.
func (t *userTable[S]) each(fn func(uid uint64, s *S)) {
	t.eachRow(func(uid uint64, row []S) { fn(uid, &row[0]) })
}

// merge moves other's users into t; both must have the same width.
// rebase first points each of other's states (col is its place in the
// row) at the pool chunks t's owner adopted from other's owner; then a
// user only other holds is copied in as is, and combine folds each
// state of a user both hold into t's. other must not be used
// afterwards.
func (t *userTable[S]) merge(other *userTable[S], rebase func(s *S, col int), combine func(into, from *S, col int)) {
	other.eachRow(func(uid uint64, from []S) {
		for col := range from {
			rebase(&from[col], col)
		}
		if i, ok := t.ids[uid]; ok {
			into := t.at(i)
			for col := range from {
				combine(&into[col], &from[col], col)
			}
			return
		}
		copy(t.at(t.add(uid)), from)
	})
}

// keyList is one user's distinct keys of one kind, each with a value:
// the handle of a run of a keyPool's slots, scanned newest first, with
// a hash index in the pool once it holds more than indexAt keys. It
// holds keys and values at keys[chunk][off:off+n] and
// vals[chunk][off:off+n] of its pool, with room for cap. The zero value
// is an empty list.
type keyList struct {
	chunk, off, n, cap int32
}

// at returns the list's position, the key of its index in the pool.
func (l keyList) at() int64 { return int64(l.chunk)<<32 | int64(l.off) }

// rebase moves the handle onto a pool that adopted its own at chunk
// offset base.
func (l *keyList) rebase(base int32) {
	if l.cap > 0 {
		l.chunk += base
	}
}

// Pool chunk sizes, in slots: a pool's chunks double from
// minPoolChunk up to maxPoolChunk, and a list that needs more room
// than that gets a chunk of its own size.
const (
	minPoolChunk = 1 << 8
	maxPoolChunk = 1 << 14
)

// keyPool holds the key lists of one field of one analyzer's users:
// chunks of keys and of values, cut into runs at the tail. A list at
// the tail grows in place, one slot at a time, which covers every list
// in a user-ordered stream; any other list that fills moves to the
// tail with doubled capacity, leaving its old run unused. Indexed
// lists keep their index in the pool, keyed by the list's position and
// holding offsets within the list. The zero value is ready to use.
type keyPool[K comparable, V any] struct {
	keys [][]K
	vals [][]V
	// tail is the chunk new runs are cut from, at fill.
	tail, fill int32
	index      map[int64]map[K]int32
}

// keysOf returns l's keys.
func (p *keyPool[K, V]) keysOf(l keyList) []K {
	if l.n == 0 {
		return nil
	}
	return p.keys[l.chunk][l.off : l.off+l.n]
}

// valsOf returns l's values, aligned with keysOf.
func (p *keyPool[K, V]) valsOf(l keyList) []V {
	if l.n == 0 {
		return nil
	}
	return p.vals[l.chunk][l.off : l.off+l.n]
}

// find returns k's offset in l, or -1.
func (p *keyPool[K, V]) find(l keyList, k K) int32 {
	if l.n > indexAt {
		if i, ok := p.index[l.at()][k]; ok {
			return i
		}
		return -1
	}
	keys := p.keysOf(l)
	for i := len(keys) - 1; i >= 0; i-- {
		if keys[i] == k {
			return int32(i)
		}
	}
	return -1
}

// slot returns k's value in l, adding k with the zero value (added =
// true) when l does not hold it yet. The pointer is valid until the
// next key is added to l.
func (p *keyPool[K, V]) slot(l *keyList, k K) (v *V, added bool) {
	i := p.find(*l, k)
	if i < 0 {
		if l.n == l.cap {
			p.grow(l)
		}
		i, added = l.n, true
		var zero V
		p.keys[l.chunk][l.off+i] = k
		p.vals[l.chunk][l.off+i] = zero
		l.n++
		switch {
		case l.n == indexAt+1:
			ix := make(map[K]int32, 2*l.n)
			for j, key := range p.keysOf(*l) {
				ix[key] = int32(j)
			}
			if p.index == nil {
				p.index = make(map[int64]map[K]int32)
			}
			p.index[l.at()] = ix
		case l.n > indexAt:
			p.index[l.at()][k] = i
		}
	}
	return &p.vals[l.chunk][l.off+i], added
}

// grow makes room in l for one more key: in place when l ends at the
// tail, otherwise by moving l to the tail with twice its capacity.
func (p *keyPool[K, V]) grow(l *keyList) {
	if l.cap > 0 && l.chunk == p.tail && l.off+l.cap == p.fill && int(p.fill) < len(p.keys[p.tail]) {
		l.cap++
		p.fill++
		return
	}
	c := max(1, 2*l.cap)
	if len(p.keys) == 0 || int(p.fill+c) > len(p.keys[p.tail]) {
		size := int32(minPoolChunk)
		if n := len(p.keys); n > 0 {
			size = min(2*int32(len(p.keys[n-1])), maxPoolChunk)
		}
		size = max(size, c)
		p.keys = append(p.keys, make([]K, size))
		p.vals = append(p.vals, make([]V, size))
		p.tail, p.fill = int32(len(p.keys)-1), 0
	}
	moved := keyList{chunk: p.tail, off: p.fill, n: l.n, cap: c}
	p.fill += c
	copy(p.keys[moved.chunk][moved.off:], p.keysOf(*l))
	copy(p.vals[moved.chunk][moved.off:], p.valsOf(*l))
	if l.n > indexAt {
		p.index[moved.at()] = p.index[l.at()]
		delete(p.index, l.at())
	}
	*l = moved
}

// merge adds from's keys to l (both lists of p), folding the shorter
// list into the longer. A key both hold keeps one entry, and both (nil
// for a plain set) combines the two values into it. from is empty
// afterwards.
func (p *keyPool[K, V]) merge(l, from *keyList, both func(k K, into *V, from V)) {
	if from.n > l.n {
		*l, *from = *from, *l
	}
	vals := p.valsOf(*from)
	for i, k := range p.keysOf(*from) {
		v, added := p.slot(l, k)
		switch {
		case added:
			*v = vals[i]
		case both != nil:
			both(k, v, vals[i])
		}
	}
	if from.n > indexAt {
		delete(p.index, from.at())
	}
	*from = keyList{}
}

// adopt moves other's chunks, and the indexes of its lists, into p
// without copying a key, and returns the base to rebase other's lists
// by. The tail stays where more room is left. other must not be used
// afterwards.
func (p *keyPool[K, V]) adopt(other *keyPool[K, V]) (base int32) {
	base = int32(len(p.keys))
	if len(other.keys) == 0 {
		return base
	}
	if len(p.keys) == 0 || len(other.keys[other.tail])-int(other.fill) > len(p.keys[p.tail])-int(p.fill) {
		p.tail, p.fill = base+other.tail, other.fill
	}
	p.keys = append(p.keys, other.keys...)
	p.vals = append(p.vals, other.vals...)
	for at, ix := range other.index {
		if p.index == nil {
			p.index = make(map[int64]map[K]int32, len(other.index))
		}
		p.index[at+int64(base)<<32] = ix
	}
	*other = keyPool[K, V]{}
	return base
}
