package telemetry

// Concurrent block encoding for one writer. Choosing a block's codec is
// the CPU-heavy half of writing it (every codec of the policy's chain is
// tried), and blocks are independent, so a writer that is the pipeline's
// serial tail — the dataset merge's output — hands each emitted block to
// a few encoder goroutines and keeps writing records. The frames are
// still written in stream order, by the goroutine that calls the writer,
// from a ring of blocks in flight, so the stream's bytes are the
// synchronous writer's.

import (
	"hash/crc32"
	"sync"
)

// encodeQueue is how many blocks per encoder may be in flight: one being
// encoded and one queued keeps an encoder busy while the writer waits
// for the oldest block's frame.
const encodeQueue = 2

// encodeJob is one block in flight: its records, and once an encoder is
// done, the frame to write for it.
type encodeJob struct {
	payload  []byte // count records, as the writer appended them
	count    int
	enc      []byte // the winning encoding, copied out of the encoder's scratch
	stored   []byte // the frame's payload: enc, or payload under identity
	codec    CodecID
	sum      uint32
	panicked any // recovered from the encoder, re-raised by the writer
	done     chan struct{}
}

// encoderPool is a writer's encoder goroutines and its ring of blocks in
// flight: ring[head], ring[head+1], ... (mod len) hold the inFlight
// blocks in stream order, and the slots after them are free.
type encoderPool struct {
	jobs           chan *encodeJob
	ring           []*encodeJob
	head, inFlight int
	wg             sync.WaitGroup
}

// EncodeConcurrently makes the writer encode the blocks it emits from
// now on on n goroutines, each running the writer's own codec selection
// and checksum, up to encodeQueue*n blocks ahead of the frames written.
// The frames are still written in stream order by the goroutine calling
// the writer, so the stream's bytes do not change: a block's frame is
// written by the Write, WriteRecords or WriteEncodedBlock call that
// needs its slot, or by Flush, and that call returns the write's error.
// A panic in an encoder is re-raised by the call that collects its
// block. The returned stop ends the goroutines; call it once, after the
// final Flush or when the writer is abandoned (blocks still in flight
// are then dropped). With n <= 1, or under the identity policy, whose
// encode step is only the checksum, blocks stay encoded on the calling
// goroutine and stop does nothing.
func (w *WriterV2) EncodeConcurrently(n int) (stop func()) {
	if n <= 1 || len(w.chain) == 0 {
		return func() {}
	}
	// jobs holds as many blocks as the ring, so submit never blocks on it.
	p := &encoderPool{jobs: make(chan *encodeJob, encodeQueue*n), ring: make([]*encodeJob, encodeQueue*n)}
	for i := range p.ring {
		p.ring[i] = &encodeJob{payload: make([]byte, 0, w.perBlock*recordSize), done: make(chan struct{}, 1)}
	}
	p.wg.Add(n)
	for range n {
		go p.encode(w.chain)
	}
	w.pool = p
	return func() {
		close(p.jobs)
		p.wg.Wait()
		w.pool = nil
	}
}

// encode runs jobs until the pool stops, with scratch of its own for
// every chain codec.
func (p *encoderPool) encode(chain []BlockCodec) {
	defer p.wg.Done()
	encs := make([][]byte, len(chain))
	for j := range p.jobs {
		j.encode(chain, encs)
	}
}

// encode selects the block's codec and checksums the winner, which it
// copies into the job: encs is reused for the next block.
func (j *encodeJob) encode(chain []BlockCodec, encs [][]byte) {
	defer func() {
		j.panicked = recover()
		j.done <- struct{}{}
	}()
	stored, codec := selectEncoding(chain, j.payload, encs)
	if codec != CodecIdentity {
		j.enc = append(j.enc[:0], stored...)
		stored = j.enc
	}
	j.stored, j.codec, j.sum = stored, codec, crc32.Checksum(stored, castagnoli)
}

// submit hands the block in progress to the encoders, taking the free
// slot's payload buffer in exchange; when every slot is in flight, the
// oldest block's frame is written first.
func (w *WriterV2) submit() error {
	p := w.pool
	if p.inFlight == len(p.ring) {
		if err := w.collect(); err != nil {
			return err
		}
	}
	j := p.ring[(p.head+p.inFlight)%len(p.ring)]
	j.payload, w.payload = w.payload, j.payload[:0]
	j.count, w.count = w.count, 0
	p.inFlight++
	p.jobs <- j
	return nil
}

// collect waits for the oldest block in flight and writes its frame.
func (w *WriterV2) collect() error {
	p := w.pool
	j := p.ring[p.head]
	<-j.done
	p.head = (p.head + 1) % len(p.ring)
	p.inFlight--
	if v := j.panicked; v != nil {
		j.panicked = nil
		panic(v)
	}
	return w.writeFrame(j.count, j.codec, j.sum, j.stored)
}

// drain writes the frames of every block in flight, in stream order.
func (w *WriterV2) drain() error {
	for w.pool != nil && w.pool.inFlight > 0 {
		if err := w.collect(); err != nil {
			return err
		}
	}
	return nil
}
