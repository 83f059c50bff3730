package netaddr

import (
	"testing"
	"testing/quick"
)

func TestClassifyTransitionProtocols(t *testing.T) {
	cases := []struct {
		addr string
		want AddrKind
	}{
		{"2001:0:53aa:64c:0:fbff:b03f:f6bd", KindTeredo},
		{"2001::1", KindTeredo},
		{"2001:1::a1b2:c3d4:e5f6:789a", KindRandomIID}, // outside 2001::/32
		{"2002:c000:201::1", Kind6to4},
		{"2002::1", Kind6to4},
		{"2003::a1b2:c3d4:e5f6:789a", KindRandomIID},
		{"2003::1", KindStructuredIID}, // tiny IID: structured layout
		{"2001:db8::a1b2:c3d4:e5f6:789a", KindRandomIID},
	}
	for _, c := range cases {
		if got := Classify(MustParseAddr(c.addr)); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestClassifyEUI64(t *testing.T) {
	// 2001:db8::0211:22ff:fe33:4455 embeds MAC 00:11:22:33:44:55.
	a := MustParseAddr("2001:db8::211:22ff:fe33:4455")
	if !IsEUI64IID(a) {
		t.Fatal("should detect EUI-64 IID")
	}
	if got := Classify(a); got != KindEUI64 {
		t.Fatalf("Classify = %v", got)
	}
	// Without ff:fe in the middle it is not EUI-64.
	b := MustParseAddr("2001:db8::211:22fe:ff33:4455")
	if IsEUI64IID(b) {
		t.Fatal("false positive EUI-64")
	}
}

func TestClassifyStructuredIID(t *testing.T) {
	a := MustParseAddr("2600:380:1234:5678::1f3a")
	if !IsStructuredIID(a) {
		t.Fatal("should detect structured IID")
	}
	if Classify(a) != KindStructuredIID {
		t.Fatalf("Classify = %v", Classify(a))
	}
	// All-zero IID is the anycast address, not a structured client slot.
	b := MustParseAddr("2600:380:1234:5678::")
	if IsStructuredIID(b) {
		t.Fatal("all-zero IID misclassified as structured")
	}
	// A bit above the low 16 disqualifies.
	c := MustParseAddr("2600:380:1234:5678::1:1f3a")
	if IsStructuredIID(c) {
		t.Fatal("high bits set should disqualify")
	}
}

func TestClassifyNonV6(t *testing.T) {
	if Classify(MustParseAddr("1.2.3.4")) != KindOther {
		t.Fatal("IPv4 should classify as other")
	}
	if Classify(Addr{}) != KindOther {
		t.Fatal("invalid should classify as other")
	}
	if IsTeredo(MustParseAddr("1.2.3.4")) || Is6to4(MustParseAddr("1.2.3.4")) {
		t.Fatal("IPv4 matched v6 transition prefixes")
	}
}

func TestEUI64FromMAC(t *testing.T) {
	mac := uint64(0x001122334455)
	iid := EUI64FromMAC(mac)
	// Universal/local bit must be flipped: 00 -> 02 in the first byte.
	if iid>>56 != 0x02 {
		t.Fatalf("first IID byte = %#x, want 0x02", iid>>56)
	}
	if (iid>>24)&0xffff != 0xfffe {
		t.Fatalf("middle bytes = %#x, want fffe", (iid>>24)&0xffff)
	}
	if iid != 0x021122fffe334455 {
		t.Fatalf("EUI64FromMAC = %#x, want 0x021122fffe334455", iid)
	}
}

// Property: every EUI64FromMAC output is detected by IsEUI64IID, and
// only the MAC's low 48 bits shape it.
func TestEUI64Property(t *testing.T) {
	base := MustParseAddr("2001:db8:1:2::")
	f := func(mac uint64) bool {
		iid := EUI64FromMAC(mac)
		a := base.WithIID(iid)
		return IsEUI64IID(a) && iid == EUI64FromMAC(mac&0xffffffffffff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrKindString(t *testing.T) {
	kinds := map[AddrKind]string{
		KindOther:         "other",
		KindTeredo:        "teredo",
		Kind6to4:          "6to4",
		KindEUI64:         "eui64",
		KindStructuredIID: "structured-iid",
		KindRandomIID:     "random-iid",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
