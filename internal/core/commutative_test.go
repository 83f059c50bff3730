package core

import (
	"reflect"
	"testing"

	"userv6/internal/netaddr"
)

// TestCommutativeFoldArbitrarySplit backs the registration contract
// with behavior: UserCentric and IPCentric fed a reversed stream split
// round-robin (deliberately not user-disjoint) across replicas must
// fold to exactly the sequential state. This is the property the fused
// analysis path relies on.
func TestCommutativeFoldArbitrarySplit(t *testing.T) {
	stream := analysisStream()

	mkSet := func() (*AnalyzerSet, *UserCentric, *IPCentric) {
		set := NewAnalyzerSet()
		uc := NewUserCentricFor(false)
		AddCommutativeAnalyzer(set, uc, func() *UserCentric { return NewUserCentricFor(false) }, (*UserCentric).Merge)
		ic := NewIPCentric(netaddr.IPv6, 64)
		AddCommutativeAnalyzer(set, ic, func() *IPCentric { return NewIPCentric(netaddr.IPv6, 64) }, (*IPCentric).Merge)
		return set, uc, ic
	}

	refSet, ruc, ric := mkSet()
	for _, o := range stream {
		refSet.Observe(o)
	}

	set, uc, ic := mkSet()
	replicas := []*Replica{set.NewReplica(), set.NewReplica(), set.NewReplica()}
	for i := range stream {
		o := stream[len(stream)-1-i] // reversed order
		replicas[i%len(replicas)].Observe(o)
	}
	set.Fold(replicas...)

	if uc.Users() != ruc.Users() {
		t.Fatalf("UserCentric users %d, want %d", uc.Users(), ruc.Users())
	}
	for _, fam := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
		if !reflect.DeepEqual(uc.AddrsPerUser(fam), ruc.AddrsPerUser(fam)) {
			t.Fatalf("AddrsPerUser(%v) diverged under a reordered split", fam)
		}
	}
	if !reflect.DeepEqual(uc.PrefixSpans([]int{44, 64}), ruc.PrefixSpans([]int{44, 64})) {
		t.Fatal("PrefixSpans diverged under a reordered split")
	}
	if ic.Prefixes() != ric.Prefixes() {
		t.Fatalf("IPCentric prefixes %d, want %d", ic.Prefixes(), ric.Prefixes())
	}
	if !reflect.DeepEqual(ic.UsersPerPrefix(), ric.UsersPerPrefix()) {
		t.Fatal("UsersPerPrefix diverged under a reordered split")
	}
	if !reflect.DeepEqual(ic.TopPrefixes(5), ric.TopPrefixes(5)) {
		t.Fatal("TopPrefixes diverged under a reordered split")
	}
}
