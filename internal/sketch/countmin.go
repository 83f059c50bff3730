package sketch

import "fmt"

// CountMin is a Count-Min sketch: a fixed-memory frequency estimator that
// only ever over-counts. Used to pre-filter candidate heavy prefixes
// before exact counting.
type CountMin struct {
	width, depth int
	rows         [][]uint64
	seeds        []uint64
}

// NewCountMin returns a sketch with the given width (counters per row)
// and depth (independent rows). Estimation error is roughly
// total/width with probability 1 - 2^-depth.
func NewCountMin(width, depth int) (*CountMin, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("sketch: CountMin dimensions %dx%d invalid", width, depth)
	}
	cm := &CountMin{width: width, depth: depth}
	cm.rows = make([][]uint64, depth)
	cm.seeds = make([]uint64, depth)
	for i := range cm.rows {
		cm.rows[i] = make([]uint64, width)
		cm.seeds[i] = hash64(uint64(i) + 0x5bd1e995)
	}
	return cm, nil
}

// MustNewCountMin is NewCountMin that panics on error.
func MustNewCountMin(width, depth int) *CountMin {
	cm, err := NewCountMin(width, depth)
	if err != nil {
		panic(err)
	}
	return cm
}

// Add increments the count of key by delta.
func (cm *CountMin) Add(key uint64, delta uint64) {
	for i := 0; i < cm.depth; i++ {
		idx := hash64(key^cm.seeds[i]) % uint64(cm.width)
		cm.rows[i][idx] += delta
	}
}

// Count returns an upper-bound estimate of key's total added delta.
func (cm *CountMin) Count(key uint64) uint64 {
	min := ^uint64(0)
	for i := 0; i < cm.depth; i++ {
		idx := hash64(key^cm.seeds[i]) % uint64(cm.width)
		if v := cm.rows[i][idx]; v < min {
			min = v
		}
	}
	return min
}
