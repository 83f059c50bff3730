package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardedDir writes a two-part export with a complete manifest and
// returns the directory.
func shardedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	meta := Meta{Seed: 7, Users: 400, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(400)
	man := &Manifest{
		Version: ManifestVersion, Seed: meta.Seed, Shards: 2,
		ConfigHash: ConfigHash(meta), Meta: meta, Complete: true,
	}
	for i := 0; i < 2; i++ {
		name := filepath.Join(dir, partName(i))
		info := writePart(t, name, meta, obs[i*200:(i+1)*200])
		info.UserLo, info.UserHi = i*200, (i+1)*200
		man.Parts = append(man.Parts, info)
	}
	if err := WriteManifest(filepath.Join(dir, ManifestName), man); err != nil {
		t.Fatal(err)
	}
	return dir
}

func partName(i int) string {
	return [...]string{"part-0000.uv6", "part-0001.uv6"}[i]
}

// TestOpenSourceResolution: a directory means the sharded export in it,
// a .uv6m path is a manifest, anything else is a single file.
func TestOpenSourceResolution(t *testing.T) {
	dir := shardedDir(t)

	src, err := OpenSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Kind() != "manifest" || len(src.Parts()) != 2 {
		t.Fatalf("OpenSource(dir): kind %s, %d parts", src.Kind(), len(src.Parts()))
	}

	src, err = OpenSource(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if src.Kind() != "manifest" {
		t.Fatalf("OpenSource(manifest path): kind %s", src.Kind())
	}

	src, err = OpenSource(filepath.Join(dir, partName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if src.Kind() != "file" || len(src.Parts()) != 1 {
		t.Fatalf("OpenSource(part file): kind %s, %d parts", src.Kind(), len(src.Parts()))
	}
}

// TestManifestSourceMetaAndCaps: Meta() carries the per-part record
// total (the merged header's count), and Parts lists every part.
func TestManifestSourceMetaAndCaps(t *testing.T) {
	dir := shardedDir(t)
	src, err := OpenManifestSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := src.Meta()
	if !ok || meta.Records != src.Manifest().TotalRecords() || meta.Records == 0 {
		t.Fatalf("manifest meta %+v (ok=%v), want records filled from parts", meta, ok)
	}
	if len(src.Parts()) != 2 {
		t.Fatalf("manifest source lists %d parts, want 2", len(src.Parts()))
	}
}

// TestManifestSourceRejections: incomplete manifests and missing parts
// fail at open time, not mid-analysis.
func TestManifestSourceRejections(t *testing.T) {
	dir := shardedDir(t)
	manPath := filepath.Join(dir, ManifestName)
	man, err := ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	man.Complete = false
	if err := WriteManifest(manPath, man); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifestSource(dir); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("incomplete manifest accepted: err = %v", err)
	}
	man.Complete = true
	if err := WriteManifest(manPath, man); err != nil {
		t.Fatal(err)
	}

	gone := filepath.Join(dir, man.Parts[1].Name)
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifestSource(dir); err == nil || !strings.Contains(err.Error(), man.Parts[1].Name) {
		t.Fatalf("missing part not reported: err = %v", err)
	}
}
