package core

import (
	"fmt"
	"maps"
	"testing"
)

// poolModel drives keyPools of two analyzer replicas, a and b, next to
// a map reference per list, and checks every list against it: the
// differential behind FuzzKeyPool and the pool unit tests.
type poolModel struct {
	t     testing.TB
	pools [2]*keyPool[uint16, uint32]
	lists [2][]keyList
	ref   [2][]map[uint16]uint32
	// added counts the keys added to a's lists (merges and adopted
	// lists included): the bound on the slots its chunks may hold.
	added int
}

// newPoolModel returns a model with n empty lists per pool.
func newPoolModel(t testing.TB, n int) *poolModel {
	m := &poolModel{t: t}
	for p := range m.pools {
		m.reset(p, n)
	}
	return m
}

func (m *poolModel) reset(p, n int) {
	m.pools[p] = &keyPool[uint16, uint32]{}
	m.lists[p] = make([]keyList, n)
	m.ref[p] = make([]map[uint16]uint32, n)
	for i := range m.ref[p] {
		m.ref[p][i] = map[uint16]uint32{}
	}
}

// add adds x to k's value in list i of pool p.
func (m *poolModel) add(p, i int, k uint16, x uint32) {
	v, added := m.pools[p].slot(&m.lists[p][i], k)
	if _, ok := m.ref[p][i][k]; ok == added {
		m.t.Fatalf("pool %d list %d key %d: slot added=%v, reference holds it: %v", p, i, k, added, ok)
	}
	if added && p == 0 {
		m.added++
	}
	*v += x
	m.ref[p][i][k] += x
}

// merge folds list j of pool p into its list i, summing the values of
// keys both hold.
func (m *poolModel) merge(p, i, j int) {
	if i == j {
		return
	}
	m.pools[p].merge(&m.lists[p][i], &m.lists[p][j], func(_ uint16, into *uint32, from uint32) { *into += from })
	into, from := m.ref[p][i], m.ref[p][j]
	if p == 0 {
		// The shorter list is folded into the longer one.
		m.added += min(len(into), len(from)) - overlap(into, from)
	}
	for k, x := range from {
		into[k] += x
	}
	m.ref[p][j] = map[uint16]uint32{}
}

func overlap(a, b map[uint16]uint32) int {
	n := 0
	for k := range b {
		if _, ok := a[k]; ok {
			n++
		}
	}
	return n
}

// adopt moves b's chunks and lists into a and starts b afresh with n
// empty lists.
func (m *poolModel) adopt(n int) {
	base := m.pools[0].adopt(m.pools[1])
	for i, l := range m.lists[1] {
		l.rebase(base)
		m.lists[0] = append(m.lists[0], l)
		m.ref[0] = append(m.ref[0], m.ref[1][i])
		m.added += len(m.ref[1][i])
	}
	m.reset(1, n)
}

// check compares every list with its reference (checkList) and checks
// the layout of both pools (checkLayout).
func (m *poolModel) check() {
	m.t.Helper()
	for p := range m.pools {
		for i := range m.lists[p] {
			m.checkList(p, i)
		}
	}
	m.checkLayout()
}

// checkList compares list i of pool p with its reference: the same
// keys and values, each found at its offset, and an index exactly when
// the list is past indexAt.
func (m *poolModel) checkList(p, i int) {
	m.t.Helper()
	pool, l, ref := m.pools[p], m.lists[p][i], m.ref[p][i]
	keys, vals := pool.keysOf(l), pool.valsOf(l)
	if len(keys) != len(ref) || int(l.n) != len(ref) || l.n > l.cap {
		m.t.Fatalf("pool %d list %d: %d keys (n %d, cap %d), reference holds %d", p, i, len(keys), l.n, l.cap, len(ref))
	}
	for j, k := range keys {
		if x, ok := ref[k]; !ok || x != vals[j] {
			m.t.Fatalf("pool %d list %d key %d: value %d, reference %d (held %v)", p, i, k, vals[j], x, ok)
		}
		if got := pool.find(l, k); got != int32(j) {
			m.t.Fatalf("pool %d list %d key %d: find = %d, want %d", p, i, k, got, j)
		}
	}
	if got := pool.find(l, 0xffff); got != -1 {
		m.t.Fatalf("pool %d list %d: find of an absent key = %d", p, i, got)
	}
	if ix, ok := pool.index[l.at()]; l.cap > 0 && (l.n > indexAt != ok || (ok && len(ix) != int(l.n))) {
		m.t.Fatalf("pool %d list %d: %d keys, index present %v with %d entries", p, i, l.n, ok, len(ix))
	}
}

// checkLayout checks that live runs lie inside their chunks and never
// overlap, that each pool holds one index per list past indexAt, and
// that a's chunks hold at most a constant factor more slots than keys
// were added to it.
func (m *poolModel) checkLayout() {
	m.t.Helper()
	for p, pool := range m.pools {
		type run struct{ chunk, lo, hi int32 }
		var runs []run
		indexed := 0
		for i, l := range m.lists[p] {
			if l.n > indexAt {
				indexed++
			}
			if l.cap == 0 {
				continue
			}
			if int(l.off+l.cap) > len(pool.keys[l.chunk]) {
				m.t.Fatalf("pool %d list %d: run %d+%d past its chunk of %d", p, i, l.off, l.cap, len(pool.keys[l.chunk]))
			}
			r := run{l.chunk, l.off, l.off + l.cap}
			for _, o := range runs {
				if r.chunk == o.chunk && r.lo < o.hi && o.lo < r.hi {
					m.t.Fatalf("pool %d: runs %v and %v overlap", p, r, o)
				}
			}
			runs = append(runs, r)
		}
		if len(pool.index) != indexed {
			m.t.Fatalf("pool %d: %d indexes for %d indexed lists", p, len(pool.index), indexed)
		}
	}
	slots := 0
	for _, c := range m.pools[0].keys {
		slots += len(c)
	}
	if limit := 32*m.added + 4*minPoolChunk; slots > limit {
		m.t.Fatalf("pool a: %d slots in chunks for %d added keys (limit %d)", slots, m.added, limit)
	}
}

// run decodes data into pool operations, three bytes each (at most
// 512), and after each checks the lists it touched and the layout:
//
//   - kind 0 and 1: add run keys from start to list i of pool p;
//   - kind 2: merge list j of pool p into its list i;
//   - kind 3: pool a adopts pool b's chunks and lists.
//
// A full check follows the last operation.
func (m *poolModel) run(data []byte) {
	const lists, maxLists, maxOps = 3, 16, 512
	data = data[:min(len(data), 3*maxOps)]
	for len(data) >= 3 {
		op, x, y := data[0], data[1], data[2]
		data = data[3:]
		p := int(op>>2) & 1
		n := len(m.lists[p])
		switch op & 3 {
		case 0, 1:
			i, start, count := int(op>>3)%n, uint16(x)<<2, 1+int(y)%48
			for k := range count {
				m.add(p, i, start+uint16(k), uint32(x)+1)
			}
			m.checkList(p, i)
		case 2:
			i, j := int(x)%n, int(y)%n
			m.merge(p, i, j)
			m.checkList(p, i)
			m.checkList(p, j)
		case 3:
			if len(m.lists[0])+len(m.lists[1]) <= maxLists {
				m.adopt(lists)
				for i := range m.lists[0] {
					m.checkList(0, i)
				}
			}
		}
		m.checkLayout()
	}
	m.check()
}

// alternate returns operations adding n keys to lists i and j of pool
// p in turn, one key per operation (n <= 256).
func alternate(p, i, j, n int) []byte {
	var ops []byte
	for k := range n {
		for _, l := range []int{i, j} {
			ops = append(ops, byte(l<<3|p<<2), byte(k), 0)
		}
	}
	return ops
}

// FuzzKeyPool checks random slot, merge and adopt sequences over
// interleaved lists in two pools against a map reference.
func FuzzKeyPool(f *testing.F) {
	f.Add(alternate(0, 0, 1, 200))
	f.Add(append(alternate(1, 0, 1, 60), 3, 0, 0, 0, 0, 1, 1, 0, 0, 2, 3, 0))
	f.Add([]byte{0, 0, 47, 8, 100, 47, 16, 200, 47, 0, 12, 47, 2, 0, 1, 4, 9, 47, 3, 0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		newPoolModel(t, 3).run(data)
	})
}

// TestKeyPoolTailGrowsInPlace: lists filled one after another, as a
// user-ordered stream fills them, each grow in place at the tail and
// use exactly as many slots as they hold keys.
func TestKeyPoolTailGrowsInPlace(t *testing.T) {
	m := newPoolModel(t, 3)
	for i, n := range []int{5, 40, 9} {
		for k := range n {
			m.add(0, i, uint16(k), 1)
		}
		if l := m.lists[0][i]; l.cap != l.n {
			t.Fatalf("list %d: cap %d for %d keys", i, l.cap, l.n)
		}
	}
	if p := m.pools[0]; len(p.keys) != 1 || p.fill != 5+40+9 {
		t.Fatalf("%d chunks, tail filled to %d; want one chunk filled to %d", len(p.keys), p.fill, 5+40+9)
	}
	m.check()
}

// TestKeyPoolRelocationDoubles: a list that fills away from the tail
// moves to the tail with twice its capacity, keeping its keys, values
// and (past indexAt) its index.
func TestKeyPoolRelocationDoubles(t *testing.T) {
	m := newPoolModel(t, 2)
	l := &m.lists[0][0]
	add := func(i int) { m.add(0, i, uint16(len(m.ref[0][i])), 1) }
	add(0)
	for l.cap <= 4*indexAt {
		for l.n < l.cap {
			add(0)
		}
		for other := &m.lists[0][1]; other.n < other.cap; {
			add(1)
		}
		add(1) // list 1 takes the tail
		before := *l
		add(0)
		if l.cap != 2*before.cap || l.at() == before.at() || l.chunk != m.pools[0].tail {
			t.Fatalf("full list away from the tail: %+v -> %+v; want a move to the tail with cap %d", before, *l, 2*before.cap)
		}
		m.check()
	}
}

// TestKeyPoolLongList: a list longer than the largest chunk gets a
// chunk of its own size and stays intact and indexed throughout.
func TestKeyPoolLongList(t *testing.T) {
	m := newPoolModel(t, 2)
	for k := range maxPoolChunk + 10 {
		m.add(0, 0, uint16(k), uint32(k))
		if k%97 == 0 {
			m.add(0, 1, uint16(k), 1)
		}
	}
	m.check()
	if l := m.lists[0][0]; len(m.pools[0].keys[l.chunk]) <= maxPoolChunk {
		t.Fatalf("a list of %d keys sits in a chunk of %d", l.n, len(m.pools[0].keys[l.chunk]))
	}
}

// TestKeyPoolAdoptIndexed: adoption moves the other pool's chunks
// without copying them, and its indexed lists stay indexed under their
// rebased positions: lookups, adds and merges after adoption agree
// with the reference.
func TestKeyPoolAdoptIndexed(t *testing.T) {
	m := newPoolModel(t, 2)
	for p := range m.pools {
		for k := range 2*indexAt + 4 {
			m.add(p, k%2, uint16(k*(p+1)), 1)
		}
	}
	base, bChunk := len(m.pools[0].keys), &m.pools[1].keys[0][0]
	m.adopt(2)
	if &m.pools[0].keys[base][0] != bChunk {
		t.Fatal("adopted chunks were copied")
	}
	m.check()
	for k := range 10 {
		m.add(0, 2, uint16(1000+k), 1) // an adopted, indexed list
	}
	m.merge(0, 0, 2)
	m.merge(0, 3, 1)
	m.check()
}

// TestKeyPoolMergeFoldsShorter: merge folds the shorter list into the
// longer whichever side it is on, and empties from.
func TestKeyPoolMergeFoldsShorter(t *testing.T) {
	for _, into := range []int{3, 50} {
		t.Run(fmt.Sprint(into), func(t *testing.T) {
			m := newPoolModel(t, 2)
			for k := range into {
				m.add(0, 0, uint16(k), 1)
			}
			for k := range 20 {
				m.add(0, 1, uint16(2*k), 2)
			}
			want := maps.Clone(m.ref[0][0])
			for k, x := range m.ref[0][1] {
				want[k] += x
			}
			m.merge(0, 0, 1)
			m.check()
			if !maps.Equal(m.ref[0][0], want) || m.lists[0][1] != (keyList{}) {
				t.Fatalf("after merge: %v, from %+v", m.ref[0][0], m.lists[0][1])
			}
		})
	}
}
