package dataset

// Block-parallel dataset reading. The v2 format's independently
// checksummed, independently decodable blocks are the natural unit of
// parallelism: a single goroutine performs the sequential disk I/O
// (frame scanning), and a worker pool verifies checksums, decodes
// records, and hands each block to its worker's own callback
// (ForEachWorker). With one worker the blocks arrive in stream order;
// with more they arrive in completion order. Tolerant reads — the
// salvage path that skips corrupt blocks and reports coverage — go
// through the same pool.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"

	"userv6/internal/telemetry"
)

// ParallelOptions tunes a ParallelReader.
type ParallelOptions struct {
	// Workers is the decode pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Tolerant switches to the salvage read path: corrupt blocks are
	// skipped instead of failing the read, and Coverage reports what
	// fraction of the stream the delivered records describe. The whole
	// stream is buffered in memory, like Salvage.
	Tolerant bool
}

// Batch is one decoded block of records. The slice is recycled after
// the worker callback returns; consumers must copy any records they
// retain (Observation is a value type, so plain assignment copies).
type Batch struct {
	// Index is the block's 0-based position in the stream. In tolerant
	// mode indexes count intact blocks only.
	Index int
	// Recs holds the block's decoded records in stream order.
	Recs []telemetry.Observation
}

// ParallelReader reads a dataset file with concurrent block decode. It
// accepts everything Open and Salvage accept: headered dataset files
// (v1 or v2 stream) and headerless raw telemetry streams.
type ParallelReader struct {
	f    *os.File
	meta Meta
	raw  bool
	opts ParallelOptions

	consumed bool
	coverage telemetry.SalvageReport
	covered  bool
}

// OpenParallel opens path for parallel reading and parses its header
// (verifying the header CRC like Open). A file that starts directly
// with a telemetry signature is accepted as a headerless raw stream
// with zero Meta.
func OpenParallel(path string, opts ParallelOptions) (*ParallelReader, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open: %w", err)
	}
	hdr := make([]byte, headerSize)
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		f.Close()
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	pr := &ParallelReader{f: f, opts: opts}
	if n >= 3 && hdr[0] == 'u' && hdr[1] == 'v' && hdr[2] == '6' {
		pr.raw = true
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("dataset: seek: %w", err)
		}
		return pr, nil
	}
	if n != headerSize {
		f.Close()
		return nil, fmt.Errorf("dataset: read header: %w", io.ErrUnexpectedEOF)
	}
	if err := json.Unmarshal(trimHeader(hdr), &pr.meta); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: parse header: %w", err)
	}
	if err := verifyHeaderCRC(hdr, pr.meta); err != nil {
		f.Close()
		return nil, err
	}
	return pr, nil
}

// Meta returns the dataset metadata (zero for raw streams).
func (pr *ParallelReader) Meta() Meta { return pr.meta }

// Workers returns the normalized decode-pool size (the Workers option,
// with <= 0 resolved to GOMAXPROCS at open time). ForEachWorker calls
// its factory exactly this many times.
func (pr *ParallelReader) Workers() int { return pr.opts.Workers }

// Raw reports whether the file is a headerless telemetry stream.
func (pr *ParallelReader) Raw() bool { return pr.raw }

// Coverage returns the stream report of a completed read and whether
// one finished. A tolerant read mirrors Scan's accounting exactly (the
// same blocks counted intact, corrupt, or skipped); a strict read that
// ran to completion reports the intact stream it delivered — blocks,
// records, and per-codec block counts, with nothing corrupt or skipped
// by construction. A read that returned an error reports nothing.
func (pr *ParallelReader) Coverage() (telemetry.SalvageReport, bool) {
	return pr.coverage, pr.covered
}

// finishStrict sums the per-goroutine block counts of a successful
// strict read into the reader's coverage. An empty stream still reports
// as v2: there is nothing to contradict the newest format.
func (pr *ParallelReader) finishStrict(reports []telemetry.SalvageReport) {
	var total telemetry.SalvageReport
	for i := range reports {
		total.Add(reports[i])
	}
	if total.Version == 0 {
		total.Version = 2
	}
	pr.coverage, pr.covered = total, true
}

// Close closes the underlying file.
func (pr *ParallelReader) Close() error { return pr.f.Close() }

// scanLabeled and workerLabeled attach pprof goroutine labels so CPU
// and goroutine profiles attribute time by stage and worker: stage=scan
// for the frame scanner, stage=decode+analyze for the ForEachWorker
// workers, which decode blocks and run the callback on them.
func scanLabeled(body func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", "scan"),
		func(context.Context) { body() })
}

func workerLabeled(w int, body func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", "decode+analyze", "worker", strconv.Itoa(w)),
		func(context.Context) { body() })
}

// pools recycles payload and record-batch scratch buffers across
// blocks, so a steady-state read allocates nothing per block.
type pools struct {
	payload sync.Pool
	recs    sync.Pool
}

func (p *pools) getPayload() []byte {
	if b, ok := p.payload.Get().(*[]byte); ok {
		return *b
	}
	return nil
}

func (p *pools) putPayload(b []byte) {
	if b != nil {
		p.payload.Put(&b)
	}
}

func (p *pools) getRecs() []telemetry.Observation {
	if b, ok := p.recs.Get().(*[]telemetry.Observation); ok {
		return (*b)[:0]
	}
	return make([]telemetry.Observation, 0, telemetry.DefaultBlockRecords)
}

func (p *pools) putRecs(b []telemetry.Observation) {
	if b != nil {
		p.recs.Put(&b)
	}
}

// WorkerPanicError reports a panic that escaped a ForEachWorker
// callback (or the decode feeding it). The read returns it as an
// ordinary error so callers can tell "a worker blew up" from "a block
// was corrupt"; Stack is the panicking goroutine's stack at recover.
type WorkerPanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("dataset: ForEachWorker worker %d panicked: %v", e.Worker, e.Value)
}

// ForEachWorker consumes the stream: newWorker is called serially
// (worker 0 first, before any goroutine starts) to build one callback
// per decode worker, and each worker then invokes its own callback
// inline on every block it decodes. With one worker the batches arrive
// in stream order; with more, in arbitrary order. Record slices
// are recycled as soon as the callback returns. A given callback is
// only ever invoked from its own worker goroutine, so worker-local
// state needs no locking, while the serial factory phase may freely
// touch shared state. Tolerant selects the salvage scan and fills
// Coverage on success. The first decode or callback error cancels the
// read and is returned; a callback panic is recovered and returned as a
// *WorkerPanicError. The reader is single-use: a second call returns an
// error.
func (pr *ParallelReader) ForEachWorker(ctx context.Context, newWorker func(worker int) func(Batch) error) error {
	if pr.consumed {
		return errors.New("dataset: stream already consumed")
	}
	pr.consumed = true
	fns := make([]func(Batch) error, pr.opts.Workers)
	for w := range fns {
		fns[w] = newWorker(w)
	}
	if pr.opts.Tolerant {
		return pr.workerTolerant(ctx, fns)
	}
	return pr.workerStrict(ctx, fns)
}

// failFunc returns a first-error-wins recorder: the first failure
// cancels the read, later ones are dropped. The recorded error is
// read only after every writer goroutine has been joined.
func failFunc(cancel context.CancelFunc, firstErr *error) func(error) {
	var mu sync.Mutex
	return func(err error) {
		mu.Lock()
		if *firstErr == nil {
			*firstErr = err
			cancel()
		}
		mu.Unlock()
	}
}

func (pr *ParallelReader) workerStrict(ctx context.Context, fns []func(Batch) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		bufs     pools
		firstErr error
	)
	fail := failFunc(cancel, &firstErr)

	jobs := make(chan telemetry.RawBlock, pr.opts.Workers)
	go scanLabeled(func() {
		defer close(jobs)
		br := telemetry.NewBlockReader(bufio.NewReaderSize(pr.f, 1<<20))
		for {
			blk, err := br.Next(bufs.getPayload())
			if err == io.EOF {
				return
			}
			if err != nil {
				fail(err)
				return
			}
			select {
			case jobs <- blk:
			case <-ctx.Done():
				return
			}
		}
	})

	reports := make([]telemetry.SalvageReport, len(fns))
	var wg sync.WaitGroup
	for w := range fns {
		wg.Add(1)
		go func(w int, fn func(Batch) error) {
			defer wg.Done()
			workerLabeled(w, func() {
				defer func() {
					if v := recover(); v != nil {
						fail(&WorkerPanicError{Worker: w, Value: v, Stack: debug.Stack()})
						for range jobs {
							// Drain so the scanner never blocks on a
							// send this worker would have consumed.
						}
					}
				}()
				var scratch []byte
				for blk := range jobs {
					if ctx.Err() != nil {
						continue // cancelled: drain without decoding
					}
					recs, sc, err := blk.AppendDecoded(bufs.getRecs(), scratch)
					scratch = sc
					bufs.putPayload(blk.Payload)
					if err == nil {
						err = fn(Batch{Index: blk.Index, Recs: recs})
						if err == nil {
							reports[w].RecordBlock(blk.Codec, blk.Checksummed(), len(recs))
						}
					}
					bufs.putRecs(recs)
					if err != nil {
						fail(err)
					}
				}
			})
		}(w, fns[w])
	}
	wg.Wait()
	// Workers only exit after the scanner closed jobs, so every fail()
	// happens-before this read.
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	pr.finishStrict(reports)
	return nil
}

func (pr *ParallelReader) workerTolerant(ctx context.Context, fns []func(Batch) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffer the stream like Salvage: resynchronization needs random
	// access, and salvage is an offline recovery path, not a hot one.
	data, err := io.ReadAll(bufio.NewReaderSize(pr.f, 1<<20))
	if err != nil {
		return fmt.Errorf("dataset: salvage read: %w", err)
	}

	var (
		bufs     pools
		firstErr error
	)
	fail := failFunc(cancel, &firstErr)

	type job struct {
		idx     int
		payload []byte
	}
	jobs := make(chan job, pr.opts.Workers)
	var (
		rep     telemetry.SalvageReport
		scanErr error
	)
	go scanLabeled(func() {
		defer close(jobs)
		idx := 0
		rep, scanErr = telemetry.SalvageBlocks(data, func(payload []byte, count int) {
			select {
			case jobs <- job{idx: idx, payload: payload}:
				idx++
			case <-ctx.Done():
			}
		})
	})

	var wg sync.WaitGroup
	for w := range fns {
		wg.Add(1)
		go func(w int, fn func(Batch) error) {
			defer wg.Done()
			workerLabeled(w, func() {
				defer func() {
					if v := recover(); v != nil {
						fail(&WorkerPanicError{Worker: w, Value: v, Stack: debug.Stack()})
						for range jobs {
						}
					}
				}()
				for j := range jobs {
					if ctx.Err() != nil {
						continue
					}
					recs := telemetry.AppendRecords(bufs.getRecs(), j.payload)
					err := fn(Batch{Index: j.idx, Recs: recs})
					bufs.putRecs(recs)
					if err != nil {
						fail(err)
					}
				}
			})
		}(w, fns[w])
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// rep/scanErr were assigned before the scanner's deferred
	// close(jobs), which happens-before every worker's exit.
	if scanErr != nil {
		return scanErr
	}
	pr.coverage, pr.covered = rep, true
	return nil
}
