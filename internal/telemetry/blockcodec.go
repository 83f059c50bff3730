package telemetry

// Pluggable per-block codecs. A v2 frame stores its payload under one
// codec, identified by the flags byte of the frame header (the high
// byte of the count word — see frame.go). Codec 0 is the identity,
// which keeps every pre-codec v2 stream byte-for-byte valid. Checksums
// always cover the stored (encoded) payload, so a frame is verifiable
// without decoding it — salvage and merge passthrough depend on that.

import (
	"fmt"
	"strings"
)

// CodecID is the on-disk codec identifier carried in the frame flags.
type CodecID uint8

const (
	// CodecIdentity stores payloads uncompressed (flags byte 0, the
	// format's pre-codec wire layout).
	CodecIdentity CodecID = 0
	// CodecLZ stores payloads under the built-in byte-level LZ variant
	// (lz.go). Writers fall back to identity per block when the encoded
	// form is not strictly smaller, so an LZ stream may mix both.
	CodecLZ CodecID = 1
	// CodecDelta stores payloads column-transposed with
	// frame-of-reference deltas on the sorted user/day columns and an
	// optional LZ cascade over the residual (delta.go). Same fallback
	// rule as CodecLZ.
	CodecDelta CodecID = 2
)

// String returns the codec's canonical name, or a numeric form for
// IDs this build does not know.
func (id CodecID) String() string {
	if c, ok := CodecByID(id); ok {
		return c.Name()
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// BlockCodec encodes and decodes whole block payloads. Implementations
// must be stateless and safe for concurrent use; encoding must be
// deterministic (merge passthrough equates "same decoded payload" with
// "same stored bytes").
type BlockCodec interface {
	// ID is the identifier stored in the frame flags.
	ID() CodecID
	// Name is the stable lowercase name used in dataset metadata.
	Name() string
	// AppendEncode appends the encoded form of src to dst and reports
	// whether it is shorter than limit bytes. On true the appended bytes
	// are the whole encoding, whatever the limit; on false the trial may
	// have stopped early, and dst holds a prefix to discard.
	AppendEncode(dst, src []byte, limit int) ([]byte, bool)
	// AppendDecode appends the decoded form of src to dst, failing
	// (not panicking, not over-allocating) on any input whose decoded
	// form would exceed maxLen bytes or is otherwise malformed.
	AppendDecode(dst, src []byte, maxLen int) ([]byte, error)
}

type identityCodec struct{}

func (identityCodec) ID() CodecID  { return CodecIdentity }
func (identityCodec) Name() string { return "identity" }
func (identityCodec) AppendEncode(dst, src []byte, limit int) ([]byte, bool) {
	return append(dst, src...), len(src) < limit
}
func (identityCodec) AppendDecode(dst, src []byte, maxLen int) ([]byte, error) {
	if len(src) > maxLen {
		return dst, errLZTooLong
	}
	return append(dst, src...), nil
}

type lzCodec struct{}

func (lzCodec) ID() CodecID  { return CodecLZ }
func (lzCodec) Name() string { return "lz" }
func (lzCodec) AppendEncode(dst, src []byte, limit int) ([]byte, bool) {
	return lzEncode(dst, src, limit)
}
func (lzCodec) AppendDecode(dst, src []byte, maxLen int) ([]byte, error) {
	return lzAppendDecode(dst, src, maxLen)
}

type deltaCodec struct{}

func (deltaCodec) ID() CodecID  { return CodecDelta }
func (deltaCodec) Name() string { return "delta" }
func (deltaCodec) AppendEncode(dst, src []byte, limit int) ([]byte, bool) {
	return deltaEncode(dst, src, limit)
}
func (deltaCodec) AppendDecode(dst, src []byte, maxLen int) ([]byte, error) {
	return deltaAppendDecode(dst, src, maxLen)
}

// CodecByID resolves a codec identifier. The second result is false
// for IDs this build does not implement (frames carrying one are
// treated as corrupt by readers and skipped by salvage).
func CodecByID(id CodecID) (BlockCodec, bool) {
	switch id {
	case CodecIdentity:
		return identityCodec{}, true
	case CodecLZ:
		return lzCodec{}, true
	case CodecDelta:
		return deltaCodec{}, true
	}
	return nil, false
}

// CodecChainByName resolves a compression policy name to a writer
// fallback chain: the writer tries each codec in the chain on every
// block and stores the smallest result (identity when nothing shrinks
// the payload; chain order breaks ties). A trial stops once it cannot
// beat the smallest so far, which leaves the stored result unchanged.
// Single-codec names resolve to one-element chains; "auto" tries delta
// first, then LZ. A nil chain with ok=true is the identity policy.
// Policy names are a strict superset of codec names, so dataset
// metadata written with a plain codec name resolves unchanged.
func CodecChainByName(name string) ([]BlockCodec, bool) {
	switch strings.ToLower(name) {
	case "", "identity", "none":
		return nil, true
	case "lz":
		return []BlockCodec{lzCodec{}}, true
	case "delta":
		return []BlockCodec{deltaCodec{}}, true
	case "auto":
		return []BlockCodec{deltaCodec{}, lzCodec{}}, true
	}
	return nil, false
}

// CanonicalPolicy normalizes a compression policy name for equality
// comparison: case is folded and the identity aliases collapse to "".
// Unknown names normalize to their folded form, so two datasets with
// the same unknown label still compare equal.
func CanonicalPolicy(name string) string {
	n := strings.ToLower(name)
	if n == "identity" || n == "none" {
		return ""
	}
	return n
}

// CodecSet is a bitmask of codec IDs observed in a stream; salvage and
// scan reports carry one so callers can cross-check a dataset's frames
// against its declared codec without a second pass.
type CodecSet uint32

// Add records id in the set.
func (s *CodecSet) Add(id CodecID) { *s |= 1 << uint32(id%32) }

// Has reports whether id is in the set.
func (s CodecSet) Has(id CodecID) bool { return s&(1<<uint32(id%32)) != 0 }

// Empty reports whether no codec has been recorded.
func (s CodecSet) Empty() bool { return s == 0 }

// Names lists the codecs in the set in ID order.
func (s CodecSet) Names() []string {
	var names []string
	for id := 0; id < 32; id++ {
		if s.Has(CodecID(id)) {
			names = append(names, CodecID(id).String())
		}
	}
	return names
}
