package dataset

// Block-parallel dataset reading. The v2 format's independently
// checksummed, independently decodable blocks are the natural unit of
// parallelism: a single goroutine performs the sequential disk I/O
// (the frame walker, strict or tolerant), and a worker pool decodes
// records and hands each block to its worker's own callback
// (ForEachWorker). With one worker the blocks arrive in stream order;
// with more they arrive in completion order. Neither mode holds more
// of the file than one frame and the blocks in flight.

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
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
	// fraction of the stream the delivered records describe. The
	// stream is walked like Salvage walks it, one frame at a time.
	Tolerant bool
}

// Batch is one decoded block of records. The worker callback owns Recs
// until it returns: it may rewrite them in place, as analysis does when
// it coalesces the block. The slice is recycled after the callback
// returns; consumers must copy any records they retain (Observation is
// a value type, so plain assignment copies).
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
	// sum hashes every byte the reader consumes: the header it parsed,
	// then the stream as the walk reads it.
	sum hash.Hash32
	// stream is what the walk reads, pinned to version pin.
	stream io.Reader
	pin    int

	consumed bool
	coverage telemetry.SalvageReport
	covered  bool
}

// OpenParallel opens path for parallel reading and parses its header.
// A strict reader opens under the same accept rule as Open: a headered
// file whose header checksum verifies, or a headerless raw telemetry
// stream (zero Meta). A tolerant reader reads the header as Salvage
// does: a header that is short, does not parse or fails its checksum
// gives a zero Meta and leaves the stream to the tolerant walk.
func OpenParallel(path string, opts ParallelOptions) (*ParallelReader, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	sum := crc32.New(headerCastagnoli)
	f, h, err := openDataset(path, opts.Tolerant, sum)
	if err != nil {
		return nil, err
	}
	pr := &ParallelReader{f: f, raw: h.raw, opts: opts, sum: sum, stream: h.stream, pin: h.pin}
	if h.hdrErr == nil {
		pr.meta = h.meta
	}
	return pr, nil
}

// Meta returns the dataset metadata (zero for raw streams, and for a
// header a tolerant reader could not verify).
func (pr *ParallelReader) Meta() Meta { return pr.meta }

// Workers returns the normalized decode-pool size (the Workers option,
// with <= 0 resolved to GOMAXPROCS at open time). ForEachWorker calls
// its factory exactly this many times.
func (pr *ParallelReader) Workers() int { return pr.opts.Workers }

// Raw reports whether the file is a headerless telemetry stream.
func (pr *ParallelReader) Raw() bool { return pr.raw }

// Coverage returns the stream report of a completed read and whether
// one finished. It is the frame walker's report in both modes: a
// tolerant read accounts exactly as Scan does, and a strict read that
// ran to completion reports the same intact stream, with nothing
// corrupt or skipped by construction. A failed read reports nothing.
func (pr *ParallelReader) Coverage() (telemetry.SalvageReport, bool) {
	return pr.coverage, pr.covered
}

// CRC32C returns the whole-file checksum of a completed read, rendered
// like FileCRC32C, or "" before a read completes. A read consumes the
// file once, from the header to the end of the stream, and the checksum
// covers exactly the bytes it consumed: the bytes its records and
// Coverage came from.
func (pr *ParallelReader) CRC32C() string {
	if !pr.covered {
		return ""
	}
	return fmt.Sprintf("%08x", pr.sum.Sum32())
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
	payload bufPool[byte]
	recs    bufPool[telemetry.Observation]
}

// bufPool recycles buffers of one kind. A block keeps the handle its
// buffer came in, as pooling a new pointer would allocate per block.
type bufPool[T any] struct{ pool sync.Pool }

// get returns a pooled buffer's handle, or a new buffer's with room for
// size.
func (p *bufPool[T]) get(size int) *[]T {
	if h, ok := p.pool.Get().(*[]T); ok {
		return h
	}
	b := make([]T, 0, size)
	return &b
}

func (p *bufPool[T]) put(h *[]T, b []T) {
	*h = b
	p.pool.Put(h)
}

// scannedBlock is a scanned block and its payload buffer's handle.
type scannedBlock struct {
	blk telemetry.RawBlock
	buf *[]byte
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
// touch shared state. Tolerant selects the salvage scan. Coverage is
// filled on success. The first decode or callback error cancels the
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		bufs     pools
		firstErr error
		errMu    sync.Mutex
	)
	// The first failure cancels the read. firstErr is read only after
	// every goroutine that can fail has been joined.
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	br := telemetry.NewBlockReaderVersion(pr.stream, pr.pin)
	jobs := make(chan scannedBlock, pr.opts.Workers)
	go scanLabeled(func() {
		defer close(jobs)
		for {
			job := scannedBlock{buf: bufs.payload.get(0)}
			var err error
			if pr.opts.Tolerant {
				// The walker has verified and decoded the block, so it
				// travels with its decoded payload.
				job.blk, job.blk.Payload, err = br.NextIntact(*job.buf)
			} else {
				job.blk, err = br.Next(*job.buf)
			}
			// A tolerant walk that recognizes nothing recovers nothing
			// and ends with its coverage, as Scan and a merge count it.
			if err == io.EOF || pr.opts.Tolerant && errors.Is(err, telemetry.ErrBadMagic) {
				return
			}
			if err != nil {
				fail(err)
				return
			}
			select {
			case jobs <- job:
			case <-ctx.Done():
				return
			}
		}
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
							// Drain so the scanner never blocks on a
							// send this worker would have consumed.
						}
					}
				}()
				var scratch []byte
				for job := range jobs {
					if ctx.Err() != nil {
						continue // cancelled: drain without decoding
					}
					recsBuf := bufs.recs.get(telemetry.DefaultBlockRecords)
					recs := (*recsBuf)[:0]
					var err error
					if pr.opts.Tolerant {
						recs = telemetry.AppendRecords(recs, job.blk.Payload)
					} else {
						recs, scratch, err = job.blk.AppendDecoded(recs, scratch)
					}
					bufs.payload.put(job.buf, job.blk.Payload)
					if err == nil {
						err = fn(Batch{Index: job.blk.Index, Recs: recs})
					}
					bufs.recs.put(recsBuf, recs)
					if err != nil {
						fail(err)
					}
				}
			})
		}(w, fns[w])
	}
	wg.Wait()
	// Workers only exit after the scanner closed jobs, so every fail()
	// and every walker update happens-before these reads.
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	pr.coverage, pr.covered = br.Report(), true
	return nil
}
