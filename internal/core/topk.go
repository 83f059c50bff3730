package core

// topK returns the k first of the items each yields, in order under
// before, which must be a strict total order. It keeps the k first
// seen so far in a heap whose root ranks last among them, so an item
// that ranks after the root costs one comparison, and it orders only
// the kept items. The result is never nil.
func topK[T any](k int, each func(yield func(T)), before func(a, b T) bool) []T {
	h := make([]T, 0)
	// down moves h[i] down the heap h[:n] until no item below it ranks
	// after it.
	down := func(i, n int) {
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && before(h[c], h[c+1]) {
				c++
			}
			if !before(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	each(func(x T) {
		switch {
		case len(h) < k:
			h = append(h, x)
			for i := len(h) - 1; i > 0 && before(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case len(h) > 0 && before(x, h[0]):
			h[0] = x
			down(0, len(h))
		}
	})
	// Order the kept items: move the root, which ranks last, behind the
	// heap, until the heap is one item.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		down(0, n)
	}
	return h
}
