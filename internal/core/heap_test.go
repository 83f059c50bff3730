package core

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"userv6/internal/telemetry"
)

// retainedObjects returns the number of live heap objects a fullSet
// retains after a sequential feed of an oracle stream of the given
// number of users (plus the heavy user).
func retainedObjects(users int) int64 {
	live := []metrics.Sample{{Name: "/gc/heap/objects:objects"}}
	stream := oracleStream(1, users, 10, 1200)
	runtime.GC()
	metrics.Read(live)
	before := int64(live[0].Value.Uint64())
	f := sequentialFullSet(stream, oracleRef)
	runtime.GC()
	metrics.Read(live)
	runtime.KeepAlive(f)
	return int64(live[0].Value.Uint64()) - before
}

// TestAnalyzerStateHeapObjects checks that the default analyzers keep
// their state where the GC does not trace it: four times the users
// retain only a few hundred more heap objects (chunks and map tables,
// not users or keys), and re-observing a known (user, address) pair
// allocates nothing.
func TestAnalyzerStateHeapObjects(t *testing.T) {
	const moreUsers = 8000 - 2000
	small, large := retainedObjects(2000), retainedObjects(8000)
	if grew := large - small; grew > moreUsers/8 {
		t.Errorf("2k users retain %d heap objects, 8k users %d: %d more for %d more users", small, large, grew, moreUsers)
	}

	stream := oracleStream(2, 300, 10, 1200)
	f := sequentialFullSet(stream, oracleRef)
	var v4, abusive telemetry.Observation
	for _, o := range stream {
		if o.Addr.Is4() && v4.UserID == 0 {
			v4 = o
		}
		if o.Abusive && !abusive.Abusive {
			abusive = o
		}
	}
	heavy := stream[len(stream)-1] // indexed key lists
	for _, c := range []struct {
		name string
		obs  []telemetry.Observation
	}{
		{"same user", []telemetry.Observation{stream[len(stream)/2]}},
		{"users in turn", []telemetry.Observation{stream[0], v4, abusive, heavy}},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			for _, o := range c.obs {
				f.set.Observe(o)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: re-observing known pairs allocates %.1f times", c.name, allocs)
		}
	}
}
