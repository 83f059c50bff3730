package main

// The traced run: each workload's operation re-driven from the
// benchmark's own code, with a span around every call into a layer.
// A layer's self time is its spans' durations minus their children's
// and minus any time a span declares excluded (work it repeats from
// another span). The traced run executes at GOMAXPROCS=1, so the self
// times of all layers add up to the traced pass's wall time.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// datasetHeader is the fixed size of a dataset file's JSON header; the
// telemetry stream starts right after it (docs/DATASET_FORMAT.md).
const datasetHeader = 256

// span is one call into a layer. IDs start at 1; Parent 0 means none.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Alloc  int64            `json:"alloc_b"`
	Counts map[string]int64 `json:"counts,omitempty"`
	// ExclNS and ExclAlloc are work the span repeats from another span,
	// left out of its self time and self allocation.
	ExclNS    int64 `json:"excl_ns,omitempty"`
	ExclAlloc int64 `json:"excl_alloc_b,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory, from one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// allocated is the process's cumulative heap allocation.
func (t *tracer) allocated() int64 {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64())
}

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.Alloc = t.allocated()
	s.Start = time.Since(t.t0).Nanoseconds()
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Alloc = t.allocated() - s.Alloc
}

// add adds n to one of span id's counts.
func (t *tracer) add(id int, key string, n int64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
}

// exclude leaves ns and alloc out of span id's self time and allocation.
func (t *tracer) exclude(id int, ns, alloc int64) {
	t.spans[id-1].ExclNS += ns
	t.spans[id-1].ExclAlloc += alloc
}

// get returns a copy of span id.
func (t *tracer) get(id int) span { return t.spans[id-1] }

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers sums, per layer, the self time, self allocation and counts of
// the spans below root as metric values, and returns the total self
// time of those spans.
func (t *tracer) layers(root int) (m map[string]float64, self time.Duration) {
	spans := t.spans[root-1:]
	childNS := map[int]int64{}
	childAlloc := map[int]int64{}
	for _, s := range spans[1:] {
		childNS[s.Parent] += s.dur()
		childAlloc[s.Parent] += s.Alloc
	}
	m = map[string]float64{}
	for _, s := range spans[1:] {
		ns := s.dur() - childNS[s.ID] - s.ExclNS
		self += time.Duration(ns)
		m[s.Name+".busy_s"] += float64(ns) / 1e9
		m[s.Name+".alloc_b"] += float64(s.Alloc - childAlloc[s.ID] - s.ExclAlloc)
		for k, v := range s.Counts {
			m[s.Name+"."+k] += float64(v)
		}
	}
	return m, self
}

// walked is what walk read: the records, and the time and allocation of
// the reading a ParallelReader repeats (Next, and AppendDecoded with
// its Verify).
type walked struct {
	records           uint64
	readNS, readAlloc int64
}

// walk reads one dataset file block by block: scan (BlockReader.Next
// on the stream after the header), crc (Verify) and decode
// (AppendDecoded, minus the Verify it repeats). visit, when not nil,
// gets each decoded block with its index.
func walk(tr *tracer, parent int, path string, visit func(int, []telemetry.Observation)) (walked, error) {
	var out walked
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	if _, err := f.Seek(datasetHeader, io.SeekStart); err != nil {
		return out, err
	}
	br := telemetry.NewBlockReader(f)
	var (
		payload, scratch []byte
		recs             []telemetry.Observation
	)
	read := func(id int) {
		s := tr.get(id)
		out.readNS += s.dur()
		out.readAlloc += s.Alloc
	}
	for {
		id := tr.begin(parent, "scan")
		blk, err := br.Next(payload)
		tr.end(id)
		read(id)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		payload = blk.Payload
		tr.add(id, "blocks", 1)
		tr.add(id, "bytes", int64(len(blk.Payload)))

		crc := tr.begin(parent, "crc")
		err = blk.Verify()
		tr.end(crc)
		if err != nil {
			return out, err
		}
		id = tr.begin(parent, "decode")
		recs, scratch, err = blk.AppendDecoded(recs[:0], scratch)
		tr.end(id)
		read(id)
		if err != nil {
			return out, err
		}
		c := tr.get(crc)
		tr.exclude(id, c.dur(), c.Alloc)
		tr.add(id, "records", int64(len(recs)))
		tr.add(id, "blocks."+blk.Codec.String(), 1)
		out.records += uint64(len(recs))
		if visit != nil {
			visit(blk.Index, recs)
		}
	}
}

// observe feeds one decoded block to each analyzer in turn, one
// observe.<name> span per analyzer.
func observe(tr *tracer, parent int, a *analyzers, spanNames []string, obs []core.Observer, recs []telemetry.Observation) {
	for k, o := range obs {
		id := tr.begin(parent, spanNames[k])
		if f := a.filters[k]; f != nil {
			for _, r := range recs {
				if f(r) {
					o.Observe(r)
				}
			}
		} else {
			for _, r := range recs {
				o.Observe(r)
			}
		}
		tr.end(id)
	}
}

// traced re-drives the plan from the benchmark's code. Sequential: the
// walk feeds the primaries. Fused: ParallelReader.ForEachWorker reads
// each part with the plan's workers, which only note the blocks each
// got; the walk then feeds every block to the replica of the worker
// that got it, and AnalyzerSet.Fold merges the replicas. Every span is
// opened on this goroutine, so none overlap. The fanout span excludes
// the reading the walk measures, so its self time is the fan-out
// machinery alone.
func (w *analyzeInput) traced(ctx context.Context, tr *tracer, parent int) (func() error, map[string]float64, error) {
	id := tr.begin(parent, "source.open")
	src, err := dataset.OpenSource(w.input)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	parts := src.Parts()
	for i, path := range parts {
		want, ok := src.Expected(i)
		if !ok || want.CRC32C == "" {
			continue
		}
		id := tr.begin(parent, "source.crc_gate")
		got, err := dataset.FileCRC32C(path)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		if got != want.CRC32C {
			return nil, nil, fmt.Errorf("part %s: file checksum %s does not match manifest %s", filepath.Base(path), got, want.CRC32C)
		}
	}
	meta, _ := src.Meta()
	a := newAnalyzers(meta)
	spanNames := make([]string, len(a.names))
	for k, name := range a.names {
		spanNames[k] = "observe." + name
	}

	var records uint64
	if w.plan.Mode == core.ModeSequential {
		for _, path := range parts {
			wd, err := walk(tr, parent, path, func(_ int, recs []telemetry.Observation) {
				observe(tr, parent, a, spanNames, a.primary, recs)
			})
			records += wd.records
			if err != nil {
				return nil, nil, err
			}
		}
		return func() error { return w.check(a, records) }, nil, nil
	}

	workers := w.plan.Workers
	replicas := make([]*core.Replica, workers)
	obs := make([][]core.Observer, workers)
	for i := range replicas {
		replicas[i], obs[i] = a.newReplica()
	}
	perWorker := make([]uint64, workers)
	var fanoutNS int64
	for _, path := range parts {
		got := make([][]int, workers)
		id := tr.begin(parent, "fanout")
		pr, err := dataset.OpenParallel(path, dataset.ParallelOptions{Workers: workers})
		if err == nil {
			err = pr.ForEachWorker(ctx, func(wk int) func(dataset.Batch) error {
				return func(b dataset.Batch) error {
					got[wk] = append(got[wk], b.Index)
					perWorker[wk] += uint64(len(b.Recs))
					return nil
				}
			})
			pr.Close()
		}
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		fanoutNS += tr.get(id).dur()

		owner := map[int]int{}
		for wk, blocks := range got {
			for _, b := range blocks {
				owner[b] = wk
			}
		}
		wd, err := walk(tr, parent, path, func(block int, recs []telemetry.Observation) {
			observe(tr, parent, a, spanNames, obs[owner[block]], recs)
		})
		records += wd.records
		if err != nil {
			return nil, nil, err
		}
		tr.exclude(id, wd.readNS, wd.readAlloc)
	}
	id = tr.begin(parent, "fold")
	a.set.Fold(replicas...)
	tr.end(id)
	tr.add(id, "replicas", int64(workers))

	var fanned, most uint64
	for _, n := range perWorker {
		fanned += n
		most = max(most, n)
	}
	extra := map[string]float64{
		"fanout.worker_busy_s": float64(fanoutNS) / 1e9,
		"fanout.skew":          float64(most) * float64(workers) / float64(max(fanned, 1)),
	}
	return func() error {
		if fanned != records {
			return fmt.Errorf("fan-out delivered %d records, the walk decoded %d", fanned, records)
		}
		return w.check(a, records)
	}, extra, nil
}

// traced generates the week into a slice (gen), encodes it as one
// "auto" stream into memory (encode), writes it as the set-up export's
// parts and manifest (write, whose self time excludes the encode it
// repeats) and merges those parts (merge).
func (w *exportMerge) traced(ctx context.Context, tr *tracer, parent int) (func() error, map[string]float64, error) {
	if w.recs == nil {
		w.recs = make([]telemetry.Observation, 0, w.records())
		w.enc.Grow(int(w.stored))
	}
	from, to := w.meta.Window()
	id := tr.begin(parent, "gen")
	w.recs = w.recs[:0]
	w.sim.Generate(from, to, func(o telemetry.Observation) { w.recs = append(w.recs, o) })
	tr.end(id)
	tr.add(id, "records", int64(len(w.recs)))

	enc := tr.begin(parent, "encode")
	w.enc.Reset()
	err := encode(&w.enc, w.meta.Codec, w.recs)
	tr.end(enc)
	if err != nil {
		return nil, nil, err
	}
	tr.add(enc, "bytes", int64(w.enc.Len()))
	rep, err := telemetry.SalvageBytes(w.enc.Bytes(), nil)
	if err != nil {
		return nil, nil, err
	}
	for codec, n := range rep.CodecBlocks {
		tr.add(enc, "blocks."+codec.String(), int64(n))
	}

	dir, err := os.MkdirTemp(w.dir, "trace-")
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(parent, "write")
	written, err := w.writeParts(dir)
	tr.end(id)
	e := tr.get(enc)
	tr.exclude(id, e.dur(), e.Alloc)
	tr.add(id, "bytes", written)
	var mrep dataset.MergeReport
	if err == nil {
		id = tr.begin(parent, "merge")
		_, mrep, err = dataset.MergeManifest(filepath.Join(dir, mergedName),
			filepath.Join(dir, dataset.ManifestName), &dataset.MergeOptions{Strict: true})
		tr.end(id)
		tr.add(id, "records", int64(mrep.Records))
		for _, p := range mrep.Parts {
			tr.add(id, "retries", int64(p.Retries))
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return func() error {
		defer os.RemoveAll(dir)
		return w.check(dir, w.man.ConfigHash, mrep.Records)
	}, nil, nil
}

// encode writes recs as one v2 stream under a compression policy.
func encode(dst io.Writer, policy string, recs []telemetry.Observation) error {
	tw, err := telemetry.NewWriterV2Policy(dst, telemetry.DefaultBlockRecords, policy)
	if err != nil {
		return err
	}
	for _, o := range recs {
		if err := tw.Write(o); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// writeParts writes w.recs into dir as the set-up export's parts, cut at
// the record counts its manifest lists, plus that manifest, and returns
// the bytes written.
func (w *exportMerge) writeParts(dir string) (int64, error) {
	var off uint64
	for _, p := range w.man.Parts {
		if off+p.Records > uint64(len(w.recs)) {
			return 0, fmt.Errorf("part %s: manifest lists more records than were generated", p.Name)
		}
		dw, err := dataset.Create(filepath.Join(dir, p.Name), w.man.Meta)
		if err != nil {
			return 0, err
		}
		for _, o := range w.recs[off : off+p.Records] {
			if err := dw.Write(o); err != nil {
				dw.Abort()
				return 0, err
			}
		}
		if err := dw.Close(); err != nil {
			return 0, err
		}
		off += p.Records
	}
	if err := dataset.WriteManifest(filepath.Join(dir, dataset.ManifestName), w.man); err != nil {
		return 0, err
	}
	return diskBytes(dir)
}
