package dataset

// Sources: the unit of analysis. The paper's analyses run over one
// logical telemetry corpus, but on disk that corpus may be a single
// merged .uv6 file or a sharded export's manifest.uv6m plus parts. A
// Source names the parts and carries whatever expectations the
// container format declares (per-part user ranges, codecs, whole-file
// checksums from a manifest), so the planner and executor can run over
// it without knowing which concrete shape they were handed.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Source is one logical telemetry corpus: an ordered set of part files
// plus whatever the container declares about them. Parts are analyzed
// independently — for sharded exports each part covers a disjoint user
// range, so per-part analyzer replicas fold exactly like generation
// shards.
type Source interface {
	// Kind names the concrete shape: "file" or "manifest".
	Kind() string
	// Parts returns the part file paths in canonical order.
	Parts() []string
	// Expected returns the container's declared expectations for part i
	// (codec, CRC32C, counts) when the container records them.
	Expected(i int) (PartInfo, bool)
	// Meta returns the dataset metadata the corpus describes, when
	// known (false for a headerless raw stream).
	Meta() (Meta, bool)
}

// probeMeta reads path's header without consuming the stream, under
// OpenParallel's accept rules: a headered v1/v2 file yields its Meta, a
// headerless raw telemetry stream yields ok=false, anything else is an
// error.
func probeMeta(path string) (Meta, bool, error) {
	f, meta, hdr, err := openDataset(path)
	if err != nil {
		return Meta{}, false, err
	}
	f.Close()
	return meta, hdr != nil, nil
}

// HeaderMeta reads path's header alone: the Meta of a header that
// parses and passes its checksum, or ok=false for a headerless raw
// stream; a header that fails gives a zero Meta and the error. Unlike
// NewFileSource it does not look behind the header, so a verified
// header over a damaged stream signature still yields its Meta:
// salvage and merge keep it while their tolerant walk reads the
// stream.
func HeaderMeta(path string) (meta Meta, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: open: %w", err)
	}
	defer f.Close()
	meta, hdr, err := readHeader(f)
	if err != nil {
		return Meta{}, false, err
	}
	return meta, hdr != nil, nil
}

// FileSource is a single dataset file (headered or raw stream).
type FileSource struct {
	path    string
	meta    Meta
	hasMeta bool
}

// NewFileSource probes path's header and wraps it as a one-part source.
func NewFileSource(path string) (*FileSource, error) {
	meta, ok, err := probeMeta(path)
	if err != nil {
		return nil, err
	}
	return &FileSource{path: path, meta: meta, hasMeta: ok}, nil
}

func (s *FileSource) Kind() string                  { return "file" }
func (s *FileSource) Parts() []string               { return []string{s.path} }
func (s *FileSource) Expected(int) (PartInfo, bool) { return PartInfo{}, false }
func (s *FileSource) Meta() (Meta, bool)            { return s.meta, s.hasMeta }

// ManifestSource is a sharded export addressed by its manifest: part
// paths resolve relative to the manifest file, and the manifest's
// per-part declarations (codec, CRC32C, counts) become the executor's
// cross-checks — the same expectations a merge verifies part by part.
type ManifestSource struct {
	man   *Manifest
	parts []string
}

// OpenManifestSource reads a manifest and resolves its parts. path may
// be the manifest file itself or a directory containing one under the
// conventional name (manifest.uv6m). Every listed part must exist next
// to the manifest; a missing part fails here, not mid-analysis.
func OpenManifestSource(path string) (*ManifestSource, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, ManifestName)
	}
	man, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	if !man.Complete {
		return nil, fmt.Errorf("dataset: manifest %s is incomplete (export interrupted?)", path)
	}
	dir := filepath.Dir(path)
	parts := make([]string, len(man.Parts))
	for i, p := range man.Parts {
		parts[i] = filepath.Join(dir, p.Name)
		if _, err := os.Stat(parts[i]); err != nil {
			return nil, fmt.Errorf("dataset: manifest part %q: %w", p.Name, err)
		}
	}
	return &ManifestSource{man: man, parts: parts}, nil
}

func (s *ManifestSource) Kind() string    { return "manifest" }
func (s *ManifestSource) Parts() []string { return s.parts }

func (s *ManifestSource) Expected(i int) (PartInfo, bool) {
	if i < 0 || i >= len(s.man.Parts) {
		return PartInfo{}, false
	}
	return s.man.Parts[i], true
}

// Meta returns the manifest's merged-output metadata with the record
// count filled in from the per-part totals — the same header a merge of
// these parts would write.
func (s *ManifestSource) Meta() (Meta, bool) {
	m := s.man.Meta
	m.Records = s.man.TotalRecords()
	return m, true
}

// Manifest exposes the parsed manifest for tools that report per-part
// detail (verify, merge planning).
func (s *ManifestSource) Manifest() *Manifest { return s.man }

// OpenSource resolves a user-supplied path to the right source shape:
// a directory means "the sharded export in here" (manifest.uv6m
// inside), a .uv6m path is a manifest, anything else is a single
// dataset file. This is what lets `analyze` take a merged file, an
// export directory, or a manifest interchangeably.
func OpenSource(path string) (Source, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return OpenManifestSource(filepath.Join(path, ManifestName))
	}
	if strings.HasSuffix(path, ".uv6m") || filepath.Base(path) == ManifestName {
		return OpenManifestSource(path)
	}
	return NewFileSource(path)
}
