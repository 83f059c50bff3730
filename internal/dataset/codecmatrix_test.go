package dataset

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/telemetry"
)

// codecPolicies is every compression policy a dataset can be written
// under: the full codec × reader compatibility matrix runs over it.
var codecPolicies = []string{"", "lz", "delta", "auto"}

// TestCodecReaderMatrix: every codec policy × every reader mode must
// deliver exactly the records that went in — equal record streams mean
// equal analyze output, whatever the wire bytes look like. The "" row
// doubles as the pre-codec round trip: an identity dataset's frames
// are flags=0, bit-for-bit the layout files written before the codec
// layer existed carry.
func TestCodecReaderMatrix(t *testing.T) {
	obs := sample(5000)
	for _, policy := range codecPolicies {
		t.Run("policy="+policyLabel(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "d.uv6")
			meta := Meta{Seed: 9, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all", Codec: policy}
			writePart(t, path, meta, obs)

			if policy == "" {
				assertIdentityFrames(t, path)
			}

			sameRecords(t, readSequential(t, path), obs)
			sameRecords(t, readOneWorker(t, path, false), obs)
			sameRecords(t, readOneWorker(t, path, true), obs)

			sorted := append([]telemetry.Observation{}, obs...)
			sortObs(sorted)
			fused := readFused(t, path, ParallelOptions{Workers: 4})
			sortObs(fused)
			sameRecords(t, fused, sorted)
		})
	}
}

func policyLabel(p string) string {
	if p == "" {
		return "identity"
	}
	return p
}

// assertIdentityFrames fails unless every frame in the file carries
// flags byte 0 — the pre-codec wire layout.
func assertIdentityFrames(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.Scan(bytes.NewReader(raw[headerSize:]))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || !rep.Codecs.Has(telemetry.CodecIdentity) || len(rep.CodecBlocks) != 1 {
		t.Fatalf("identity dataset is not pure flags=0: %+v", rep)
	}
}

// TestCodecMergeMatrix: for every policy, merging block-aligned parts
// written under that policy must reproduce the single-writer file byte
// for byte (exercising the passthrough fast path for the policy's
// codecs), and merging identity parts into the same policy target must
// too (exercising the decode + re-encode path — cross-policy parts
// never qualify for passthrough but always re-encode correctly).
func TestCodecMergeMatrix(t *testing.T) {
	obs := sample(5000)
	cuts := []int{2048, 4096} // part boundaries on whole 1024-record blocks
	for _, policy := range codecPolicies {
		t.Run("policy="+policyLabel(policy), func(t *testing.T) {
			dir := t.TempDir()
			meta := Meta{Seed: 13, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all", Codec: policy}
			single := filepath.Join(dir, "single.uv6")
			writePart(t, single, meta, obs)
			want, err := os.ReadFile(single)
			if err != nil {
				t.Fatal(err)
			}

			writeParts := func(sub string, partMeta Meta) []string {
				var parts []string
				lo := 0
				for i, hi := range append(append([]int{}, cuts...), len(obs)) {
					p := filepath.Join(dir, fmt.Sprintf("%s-%04d.uv6", sub, i))
					writePart(t, p, partMeta, obs[lo:hi])
					parts = append(parts, p)
					lo = hi
				}
				return parts
			}

			for name, partMeta := range map[string]Meta{
				"same-policy": meta,
				"identity-parts": func() Meta {
					m := meta
					m.Codec = ""
					return m
				}(),
			} {
				t.Run(name, func(t *testing.T) {
					merged := filepath.Join(dir, name+"-merged.uv6")
					rep, err := Merge(merged, meta, writeParts(name, partMeta), &MergeOptions{Workers: 4})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Complete || rep.Records != uint64(len(obs)) {
						t.Fatalf("complete=%v records=%d", rep.Complete, rep.Records)
					}
					for _, cov := range rep.Parts {
						if !cov.CodecOK {
							t.Fatalf("part %s flagged for codec mismatch", cov.Name)
						}
					}
					got, err := os.ReadFile(merged)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("merged %s dataset differs from single-writer output (%d vs %d bytes)",
							policyLabel(policy), len(got), len(want))
					}
				})
			}
		})
	}
}

// TestCompressionRatioGate is the CI bench-smoke lane's ratio
// assertion: on the fixture workload the delta policy must not store
// more bytes than lz, and auto must beat lz strictly — the measured
// success criterion of the delta codec. A regression here means the
// codec selection or the delta transform itself stopped paying.
func TestCompressionRatioGate(t *testing.T) {
	dir := t.TempDir()
	obs := sample(20_000)
	sizes := map[string]int64{}
	for _, policy := range codecPolicies {
		path := filepath.Join(dir, policyLabel(policy)+".uv6")
		writePart(t, path, Meta{Seed: 17, Users: 20_000, FromDay: 0, ToDay: 6, Sample: "all", Codec: policy}, obs)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[policyLabel(policy)] = st.Size()
	}
	t.Logf("bytes: identity=%d lz=%d delta=%d auto=%d",
		sizes["identity"], sizes["lz"], sizes["delta"], sizes["auto"])
	if sizes["delta"] > sizes["lz"] {
		t.Fatalf("delta %d bytes > lz %d bytes on the fixture config", sizes["delta"], sizes["lz"])
	}
	if sizes["auto"] >= sizes["lz"] {
		t.Fatalf("auto %d bytes, want strictly smaller than lz (%d)", sizes["auto"], sizes["lz"])
	}
	if sizes["auto"] > sizes["delta"] {
		t.Fatalf("auto %d bytes > delta %d bytes: auto must never lose to its own chain member",
			sizes["auto"], sizes["delta"])
	}
}

// TestManifestPolicyInConfigHash: policy labels are config-relevant
// ("auto" and "lz" runs are different artifacts) and distinct from one
// another, while identity aliases all hash like the pre-codec field.
func TestManifestPolicyInConfigHash(t *testing.T) {
	base := Meta{Seed: 1, Users: 10, FromDay: 0, ToDay: 6}
	seen := map[string]string{}
	for _, policy := range []string{"lz", "delta", "auto"} {
		m := base
		m.Codec = policy
		h := ConfigHash(m)
		if h == ConfigHash(base) {
			t.Fatalf("policy %q does not affect the config hash", policy)
		}
		for other, oh := range seen {
			if h == oh {
				t.Fatalf("policies %q and %q collide in the config hash", policy, other)
			}
		}
		seen[policy] = h
	}
}
