package sketch

import (
	"container/heap"
	"fmt"
	"sort"
)

// SpaceSaving tracks the approximate top-k most frequent keys in a stream
// (Metwally et al.). It is the heavy-hitter detector behind the outlier
// analyses: finding the most user-populated addresses and prefixes without
// retaining a counter for every address seen.
type SpaceSaving struct {
	capacity int
	entries  ssHeap
	index    map[uint64]int // key -> heap position
}

// ssEntry is a monitored key: count is an upper bound on its true
// frequency, err bounds the over-count.
type ssEntry struct {
	key        uint64
	count, err uint64
}

// ssHeap is a min-heap on count so the least-watched key is evictable.
type ssHeap struct {
	items []ssEntry
	pos   map[uint64]int
}

func (h *ssHeap) Len() int           { return len(h.items) }
func (h *ssHeap) Less(i, j int) bool { return h.items[i].count < h.items[j].count }
func (h *ssHeap) Push(x any)         { panic("unused") }
func (h *ssHeap) Pop() any           { panic("unused") }
func (h *ssHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].key] = i
	h.pos[h.items[j].key] = j
}

// NewSpaceSaving returns a tracker monitoring at most capacity keys.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("sketch: SpaceSaving capacity %d invalid", capacity)
	}
	s := &SpaceSaving{capacity: capacity}
	s.entries.pos = make(map[uint64]int, capacity)
	return s, nil
}

// MustNewSpaceSaving is NewSpaceSaving that panics on error.
func MustNewSpaceSaving(capacity int) *SpaceSaving {
	s, err := NewSpaceSaving(capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Add records one occurrence of key.
func (s *SpaceSaving) Add(key uint64) { s.AddN(key, 1) }

// AddN records n occurrences of key.
func (s *SpaceSaving) AddN(key uint64, n uint64) {
	h := &s.entries
	if i, ok := h.pos[key]; ok {
		h.items[i].count += n
		heap.Fix(h, i)
		return
	}
	if len(h.items) < s.capacity {
		h.items = append(h.items, ssEntry{key: key, count: n})
		h.pos[key] = len(h.items) - 1
		heap.Fix(h, len(h.items)-1)
		return
	}
	// Evict the minimum: the newcomer inherits its count as error bound.
	min := h.items[0]
	delete(h.pos, min.key)
	h.items[0] = ssEntry{key: key, count: min.count + n, err: min.count}
	h.pos[key] = 0
	heap.Fix(h, 0)
}

// Item is a reported heavy hitter. Count overestimates the true frequency
// by at most Err.
type Item struct {
	Key        uint64
	Count, Err uint64
}

// Top returns up to k monitored keys ordered by descending count.
func (s *SpaceSaving) Top(k int) []Item {
	items := make([]Item, 0, len(s.entries.items))
	for _, e := range s.entries.items {
		items = append(items, Item{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
	if k < len(items) {
		items = items[:k]
	}
	return items
}

// Count returns the (over-)estimated count for key and whether the key is
// currently monitored.
func (s *SpaceSaving) Count(key uint64) (uint64, bool) {
	if i, ok := s.entries.pos[key]; ok {
		return s.entries.items[i].count, true
	}
	return 0, false
}
