// Package netaddr provides compact value types for IPv4 and IPv6 addresses
// and prefixes, tuned for the high-volume aggregation workloads in this
// library: masking an address at an arbitrary prefix length, classifying
// IPv6 address structure (transition protocols, EUI-64 interface
// identifiers, gateway-style structured IIDs), and generating addresses
// under the assignment schemes observed in the wild (SLAAC privacy
// extensions, DHCPv6 temporary addresses, embedded MAC identifiers).
//
// Addr is a two-word value type: comparable, usable as a map key, and
// maskable without allocation. It plays the role net/netip.Addr plays in
// the standard library, but exposes the raw 128-bit words so that the
// analyzers can operate on them directly.
package netaddr

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Family distinguishes the two IP protocol families.
type Family uint8

const (
	// Invalid is the family of the zero Addr.
	Invalid Family = iota
	// IPv4 is the 32-bit address family.
	IPv4
	// IPv6 is the 128-bit address family.
	IPv6
)

// String returns "IPv4", "IPv6" or "invalid".
func (f Family) String() string {
	switch f {
	case IPv4:
		return "IPv4"
	case IPv6:
		return "IPv6"
	default:
		return "invalid"
	}
}

// Addr is an IPv4 or IPv6 address stored as a 128-bit value plus a family
// tag. IPv6 addresses occupy the full 128 bits; IPv4 addresses are stored
// in the low 32 bits of lo with hi == 0. The zero Addr is invalid.
type Addr struct {
	hi, lo uint64
	family Family
}

// AddrFrom6 returns the IPv6 address with the given high and low 64-bit
// words (network byte order: hi holds bytes 0-7).
func AddrFrom6(hi, lo uint64) Addr {
	return Addr{hi: hi, lo: lo, family: IPv6}
}

// AddrFrom4 returns the IPv4 address for a 32-bit big-endian value.
func AddrFrom4(v uint32) Addr {
	return Addr{lo: uint64(v), family: IPv4}
}

// AddrFrom16 returns the IPv6 address for a 16-byte slice or array content.
func AddrFrom16(b [16]byte) Addr {
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return AddrFrom6(hi, lo)
}

// FromNetip converts a net/netip address. IPv4-mapped IPv6 addresses are
// unmapped to IPv4. The zero netip.Addr converts to the zero Addr.
func FromNetip(a netip.Addr) Addr {
	if !a.IsValid() {
		return Addr{}
	}
	a = a.Unmap()
	if a.Is4() {
		b := a.As4()
		return AddrFrom4(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	}
	return AddrFrom16(a.As16())
}

// Netip converts to a net/netip.Addr.
func (a Addr) Netip() netip.Addr {
	switch a.family {
	case IPv4:
		v := uint32(a.lo)
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	case IPv6:
		return netip.AddrFrom16(a.As16())
	default:
		return netip.Addr{}
	}
}

// ParseAddr parses an address in standard textual form ("192.0.2.1",
// "2001:db8::1"). It rejects zones and IPv4-in-IPv6 forms are unmapped.
func ParseAddr(s string) (Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, fmt.Errorf("netaddr: parse %q: %w", s, err)
	}
	if a.Zone() != "" {
		return Addr{}, fmt.Errorf("netaddr: parse %q: zones not supported", s)
	}
	return FromNetip(a), nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// IsValid reports whether a is a real address (not the zero value).
func (a Addr) IsValid() bool { return a.family != Invalid }

// Family returns the address family.
func (a Addr) Family() Family { return a.family }

// Is4 reports whether a is an IPv4 address.
func (a Addr) Is4() bool { return a.family == IPv4 }

// Is6 reports whether a is an IPv6 address.
func (a Addr) Is6() bool { return a.family == IPv6 }

// Words returns the raw 128-bit value as two 64-bit words. For IPv4 the
// address occupies the low 32 bits of the second word.
func (a Addr) Words() (hi, lo uint64) { return a.hi, a.lo }

// V4 returns the 32-bit value of an IPv4 address, or 0 if a is not IPv4.
func (a Addr) V4() uint32 {
	if a.family != IPv4 {
		return 0
	}
	return uint32(a.lo)
}

// As16 returns the address as 16 bytes in network order. IPv4 addresses
// are returned in IPv4-mapped form (::ffff:a.b.c.d).
func (a Addr) As16() [16]byte {
	var b [16]byte
	hi, lo := a.hi, a.lo
	if a.family == IPv4 {
		hi = 0
		lo = 0xffff00000000 | (a.lo & 0xffffffff)
	}
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		b[i+8] = byte(lo)
		hi >>= 8
		lo >>= 8
	}
	return b
}

// Bits returns the address length in bits: 32 for IPv4, 128 for IPv6,
// 0 for the zero Addr.
func (a Addr) Bits() int {
	switch a.family {
	case IPv4:
		return 32
	case IPv6:
		return 128
	default:
		return 0
	}
}

// Compare orders addresses: by family (IPv4 < IPv6), then numerically.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.family != b.family:
		if a.family < b.family {
			return -1
		}
		return 1
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo != b.lo:
		if a.lo < b.lo {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports whether a orders before b (see Compare).
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// String formats the address in standard textual form. The zero Addr
// formats as "invalid".
func (a Addr) String() string {
	if !a.IsValid() {
		return "invalid"
	}
	return a.Netip().String()
}

// IID returns the low 64 bits (the interface identifier of an IPv6
// address under the conventional 64-bit split). For IPv4 it returns the
// 32-bit address value.
func (a Addr) IID() uint64 { return a.lo }

// WithIID returns a copy of the IPv6 address with the low 64 bits
// replaced. For non-IPv6 addresses it returns a unchanged.
func (a Addr) WithIID(iid uint64) Addr {
	if a.family != IPv6 {
		return a
	}
	a.lo = iid
	return a
}

// Next returns the numerically next address within the family, wrapping
// at the top of the address space.
func (a Addr) Next() Addr {
	switch a.family {
	case IPv4:
		a.lo = uint64(uint32(a.lo) + 1)
	case IPv6:
		a.lo++
		if a.lo == 0 {
			a.hi++
		}
	}
	return a
}

// mask returns a with all bits after the first n cleared. n is clamped to
// [0, a.Bits()]. For IPv4, bit 0 is the top bit of the 32-bit value.
func (a Addr) mask(n int) Addr {
	bits := a.Bits()
	if n < 0 {
		n = 0
	}
	if n >= bits {
		return a
	}
	if a.family == IPv4 {
		if n == 0 {
			a.lo = 0
			return a
		}
		m := uint32(0xffffffff) << (32 - n)
		a.lo = uint64(uint32(a.lo) & m)
		return a
	}
	switch {
	case n == 0:
		a.hi, a.lo = 0, 0
	case n < 64:
		a.hi &= ^uint64(0) << (64 - n)
		a.lo = 0
	case n == 64:
		a.lo = 0
	default:
		a.lo &= ^uint64(0) << (128 - n)
	}
	return a
}

// Prefix is an address plus a prefix length: a subnet. The address is
// stored in canonical (masked) form, so Prefix values are comparable:
// two Prefixes are equal iff they denote the same subnet.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom returns the prefix of a at length bits, with the address
// canonicalized (host bits zeroed). bits is clamped to [0, a.Bits()].
func PrefixFrom(a Addr, bits int) Prefix {
	if !a.IsValid() {
		return Prefix{}
	}
	if bits < 0 {
		bits = 0
	}
	if max := a.Bits(); bits > max {
		bits = max
	}
	return Prefix{addr: a.mask(bits), bits: uint8(bits)}
}

// ParsePrefix parses CIDR notation ("2001:db8::/48", "192.0.2.0/24").
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("netaddr: parse prefix %q: no '/'", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > a.Bits() {
		return Prefix{}, fmt.Errorf("netaddr: parse prefix %q: bad length", s)
	}
	return PrefixFrom(a, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// IsValid reports whether p is a real prefix (not the zero value).
func (p Prefix) IsValid() bool { return p.addr.IsValid() }

// Addr returns the canonical (masked) base address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Family returns the prefix's address family.
func (p Prefix) Family() Family { return p.addr.family }

// Contains reports whether the prefix contains address a. Addresses of a
// different family are never contained.
func (p Prefix) Contains(a Addr) bool {
	if a.family != p.addr.family {
		return false
	}
	return a.mask(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.addr.family != q.addr.family {
		return false
	}
	if p.bits > q.bits {
		p, q = q, p
	}
	return q.addr.mask(int(p.bits)) == p.addr
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	if !p.IsValid() {
		return "invalid"
	}
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Subnet returns the idx-th subnet of length newLen within p, wrapping
// idx modulo the subnet capacity. newLen is clamped to [p.Bits(),
// address width]. This is the allocator primitive used by the network
// models: "the /64 number idx inside this routing /32".
func (p Prefix) Subnet(newLen int, idx uint64) Prefix {
	if !p.IsValid() {
		return Prefix{}
	}
	maxBits := p.addr.Bits()
	if newLen > maxBits {
		newLen = maxBits
	}
	if newLen < int(p.bits) {
		newLen = int(p.bits)
	}
	width := newLen - int(p.bits)
	if width == 0 {
		return PrefixFrom(p.addr, newLen)
	}
	if width < 64 {
		idx &= 1<<width - 1
	}
	a := p.addr
	if a.family == IPv4 {
		v := uint32(a.lo) | uint32(idx)<<(32-newLen)
		return PrefixFrom(AddrFrom4(v), newLen)
	}
	hi, lo := a.hi, a.lo
	// Scatter idx into bit positions [p.bits, newLen) of the 128-bit value.
	if newLen <= 64 {
		hi |= idx << (64 - newLen)
	} else if int(p.bits) >= 64 {
		lo |= idx << (128 - newLen)
	} else {
		// idx straddles the word boundary: its top bits land in the low
		// bits of hi, the rest in the high bits of lo.
		loWidth := newLen - 64
		hi |= idx >> loWidth
		if loWidth < 64 {
			lo |= (idx & (1<<loWidth - 1)) << (64 - loWidth)
		} else {
			lo |= idx
		}
	}
	return PrefixFrom(AddrFrom6(hi, lo), newLen)
}
