package netaddr

// Classification of IPv6 address structure, following the observations in
// §4.4 of the paper: transition protocols are recognizable from well-known
// prefixes (Teredo 2001::/32, 6to4 2002::/16), and a minority of clients
// embed a MAC address into the interface identifier using the modified
// EUI-64 scheme (RFC 4291 appendix A: the 48-bit MAC is split in half and
// ff:fe inserted in the middle). Mobile-gateway addresses with structured
// IIDs (all zero except the low 16 bits) are the signature the paper found
// on heavily populated addresses in ASN 20057.

// AddrKind describes the structural class of an IPv6 address.
type AddrKind uint8

const (
	// KindOther is any address not matching a more specific class.
	KindOther AddrKind = iota
	// KindTeredo is a Teredo (RFC 4380) tunnel address in 2001::/32.
	KindTeredo
	// Kind6to4 is a 6to4 (RFC 3056) transition address in 2002::/16.
	Kind6to4
	// KindEUI64 has a modified EUI-64 interface identifier embedding a
	// MAC address (ff:fe in the middle of the IID, universal/local bit
	// semantics per RFC 4291).
	KindEUI64
	// KindStructuredIID has an interface identifier that is all zeros
	// except for the low 16 bits — the gateway-style layout the paper
	// associates with heavily populated mobile-carrier addresses.
	KindStructuredIID
	// KindRandomIID is the default modern client address: a 64-bit IID
	// with no recognizable embedded structure (SLAAC privacy extensions
	// or temporary DHCPv6).
	KindRandomIID
)

// String returns a short label for the kind.
func (k AddrKind) String() string {
	switch k {
	case KindTeredo:
		return "teredo"
	case Kind6to4:
		return "6to4"
	case KindEUI64:
		return "eui64"
	case KindStructuredIID:
		return "structured-iid"
	case KindRandomIID:
		return "random-iid"
	default:
		return "other"
	}
}

var (
	teredoPrefix = MustParsePrefix("2001::/32")
	sixToFour    = MustParsePrefix("2002::/16")
)

// IsTeredo reports whether a is a Teredo tunnel address.
func IsTeredo(a Addr) bool { return teredoPrefix.Contains(a) }

// Is6to4 reports whether a is a 6to4 transition address.
func Is6to4(a Addr) bool { return sixToFour.Contains(a) }

// IsEUI64IID reports whether the IPv6 address's interface identifier uses
// the modified EUI-64 MAC embedding: bytes 11-12 of the address (the
// middle of the IID) are 0xff, 0xfe.
func IsEUI64IID(a Addr) bool {
	if !a.Is6() {
		return false
	}
	return (a.lo>>24)&0xffff == 0xfffe
}

// IsStructuredIID reports whether the IID is all zeros except possibly the
// low 16 bits, and at least one of those bits is set. (An IID of exactly
// zero is the subnet-router anycast address, not a gateway client slot.)
func IsStructuredIID(a Addr) bool {
	if !a.Is6() {
		return false
	}
	return a.lo != 0 && a.lo&^uint64(0xffff) == 0
}

// Classify returns the structural class of an IPv6 address. For IPv4 and
// invalid addresses it returns KindOther. Transition-protocol prefixes
// take precedence over IID structure, matching how an operator would
// bucket addresses.
func Classify(a Addr) AddrKind {
	if !a.Is6() {
		return KindOther
	}
	switch {
	case IsTeredo(a):
		return KindTeredo
	case Is6to4(a):
		return Kind6to4
	case IsEUI64IID(a):
		return KindEUI64
	case IsStructuredIID(a):
		return KindStructuredIID
	default:
		return KindRandomIID
	}
}

// EUI64FromMAC builds the modified EUI-64 interface identifier for a
// 48-bit MAC address (RFC 4291 appendix A): the MAC is split into its
// OUI and NIC halves, 0xfffe is inserted between them, and the
// universal/local bit (bit 6 of the first byte) is inverted.
func EUI64FromMAC(mac uint64) uint64 {
	mac &= 0xffffffffffff
	oui := mac >> 24 & 0xffffff
	nic := mac & 0xffffff
	iid := oui<<40 | 0xfffe<<24 | nic
	return iid ^ 1<<57 // flip universal/local bit
}
