package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
)

// rawRecords builds n stored records: mostly what a writer stores
// (users and days in order, IPv6 and IPv4 addresses), and about one in
// four holding bytes no writer stores — a family byte outside {1, 2}
// over a nonzero address, an abusive byte above 1, or an IPv4 address
// with nonzero bytes among 12–21.
func rawRecords(rng *rand.Rand, n int) []byte {
	p := make([]byte, n*recordSize)
	for i := 0; i < n; i++ {
		o := Observation{Day: simtime.Day(i / 40), UserID: uint64(i / 3), Requests: uint32(rng.Intn(60)),
			ASN: netmodel.ASN(64500 + rng.Intn(4)), Abusive: rng.Intn(9) == 0}
		o.SetCountry([]string{"US", "IN", "DE"}[rng.Intn(3)])
		if rng.Intn(3) == 0 {
			o.Addr = netaddr.AddrFrom4(rng.Uint32())
		} else {
			o.Addr = netaddr.AddrFrom6(0x20010db8<<32|uint64(rng.Intn(4)), rng.Uint64())
		}
		r := p[i*recordSize : (i+1)*recordSize]
		encodeRecord(r, o)
		switch rng.Intn(12) {
		case 0:
			r[28] = []byte{0, 3, 0x80, 0xff}[rng.Intn(4)]
			r[12+rng.Intn(16)] = byte(1 + rng.Intn(255))
		case 1:
			r[29] = byte(2 + rng.Intn(254))
		case 2:
			r[28] = 1
			r[12+rng.Intn(10)] = byte(1 + rng.Intn(255))
		}
	}
	return p
}

// TestWriteRecordsMatchesWrite: writing stored records, in chunks that
// cut blocks anywhere, stores the stream that writing each record
// decoded stores, non-canonical records included, under every policy,
// and leaves the caller's records as they were.
func TestWriteRecordsMatchesWrite(t *testing.T) {
	for _, policy := range []string{"none", "lz", "delta", "auto"} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := rawRecords(rng, 1+rng.Intn(400))
			in := bytes.Clone(p)

			var want bytes.Buffer
			ww, err := NewWriterV2Policy(&want, 32, policy)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(p); off += recordSize {
				if err := ww.Write(decodeRecord(p[off:])); err != nil {
					t.Fatal(err)
				}
			}
			if err := ww.Flush(); err != nil {
				t.Fatal(err)
			}

			var got bytes.Buffer
			gw, err := NewWriterV2Policy(&got, 32, policy)
			if err != nil {
				t.Fatal(err)
			}
			for rest := p; len(rest) > 0; {
				k := min(len(rest), recordSize*(1+rng.Intn(70)))
				if err := gw.WriteRecords(rest[:k]); err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			if err := gw.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s seed %d: WriteRecords stored %d bytes, Write %d, first difference at %d",
					policy, seed, got.Len(), want.Len(), firstDifference(got.Bytes(), want.Bytes()))
			}
			if gw.Count() != ww.Count() || gw.Blocks() != ww.Blocks() {
				t.Fatalf("%s seed %d: counters %d/%d, want %d/%d", policy, seed, gw.Count(), gw.Blocks(), ww.Count(), ww.Blocks())
			}
			if !bytes.Equal(p, in) {
				t.Fatalf("%s seed %d: WriteRecords modified its input", policy, seed)
			}
		}
	}
}

func TestWriteRecordsRejectsPartialRecord(t *testing.T) {
	w := NewWriterV2(io.Discard)
	if err := w.WriteRecords(make([]byte, recordSize+1)); err == nil {
		t.Fatal("a payload that is not a whole number of records was accepted")
	}
	if w.Count() != 0 {
		t.Fatalf("rejected payload counted %d records", w.Count())
	}
}

// mixedObs is frameObs with runs of noisy records that no codec
// shrinks, so a stream mixes encoded and identity frames.
func mixedObs(n int) []Observation {
	obs := frameObs(n)
	noisy := noisyObs(n)
	for i := range obs {
		if i/200%3 == 2 {
			obs[i] = noisy[i]
		}
	}
	return obs
}

// settleGoroutines waits until at most want goroutines run.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEncodeConcurrentlyMatchesSynchronous: with blocks encoded on
// encoder goroutines, a writer stores the synchronous writer's bytes,
// across Write, WriteRecords, a mid-stream Flush (a partial block) and
// passed-through frames that follow blocks still in flight.
func TestEncodeConcurrentlyMatchesSynchronous(t *testing.T) {
	obs := mixedObs(3000)
	for _, policy := range []string{"lz", "delta", "auto"} {
		var want bytes.Buffer
		ww, err := NewWriterV2Policy(&want, 64, policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range obs {
			if err := ww.Write(o); err != nil {
				t.Fatal(err)
			}
			if i == 1000 {
				if err := ww.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ww.Flush(); err != nil {
			t.Fatal(err)
		}
		// The frames of the synchronous stream, to pass through.
		var frames []RawBlock
		br := NewBlockReader(bytes.NewReader(want.Bytes()))
		for {
			b, err := br.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, b)
		}

		for _, n := range []int{2, 3, 8} {
			before := runtime.NumGoroutine()
			var got bytes.Buffer
			gw, err := NewWriterV2Policy(&got, 64, policy)
			if err != nil {
				t.Fatal(err)
			}
			stop := gw.EncodeConcurrently(n)
			// Records go in one at a time or in runs, up to the Flush after
			// record 1000 and up to 1321, five blocks later, where three
			// frames pass through while the blocks before them may still
			// be with the encoders.
			written, i, flushed := 0, 0, false
			for written < len(obs) {
				end := len(obs)
				for _, stop := range []int{1321, 1001} {
					if written < stop {
						end = stop
					}
				}
				switch {
				case written == 1001 && !flushed:
					if err := gw.Flush(); err != nil {
						t.Fatal(err)
					}
					flushed = true
				case written == 1321:
					frame := 0
					for off := 0; off < written; frame++ {
						off += frames[frame].Count
					}
					for _, b := range frames[frame : frame+3] {
						ok, err := gw.WriteEncodedBlock(b)
						if err != nil || !ok {
							t.Fatalf("passthrough of frame %d: ok=%v err=%v", b.Index, ok, err)
						}
						written += b.Count
					}
				case i%2 == 0:
					if err := gw.Write(obs[written]); err != nil {
						t.Fatal(err)
					}
					written++
				default:
					k := min(end-written, 1+i%150)
					if err := gw.WriteRecords(lzRecordPayload(obs[written : written+k])); err != nil {
						t.Fatal(err)
					}
					written += k
				}
				i++
			}
			if err := gw.Flush(); err != nil {
				t.Fatal(err)
			}
			stop()
			settleGoroutines(t, before)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s, %d encoders: stored %d bytes, the synchronous writer %d, first difference at %d",
					policy, n, got.Len(), want.Len(), firstDifference(got.Bytes(), want.Bytes()))
			}
			if gw.Count() != ww.Count() || gw.Blocks() != ww.Blocks() {
				t.Fatalf("%s, %d encoders: counters %d/%d, want %d/%d", policy, n, gw.Count(), gw.Blocks(), ww.Count(), ww.Blocks())
			}
		}
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

// TestEncodeConcurrentlyWriteError: a failed frame write is returned by
// the writer call that writes the frame, and stopping the encoders
// leaves no goroutine behind.
func TestEncodeConcurrentlyWriteError(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := NewWriterV2Policy(&failingWriter{n: 100 << 10}, 64, "auto")
	if err != nil {
		t.Fatal(err)
	}
	stop := w.EncodeConcurrently(2)
	err = nil
	for _, o := range noisyObs(10000) {
		if err = w.Write(o); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("writing past the failure returned %v, want %v", err, errWriteFailed)
	}
	stop()
	settleGoroutines(t, before)
}

// panicCodec panics on every encode.
type panicCodec struct{ lzCodec }

func (panicCodec) AppendEncode(dst, src []byte, limit int) ([]byte, bool) { panic("encoder panic") }

// TestEncodeConcurrentlyPanic: a panic in an encoder is re-raised on the
// goroutine calling the writer, and stopping the encoders leaves no
// goroutine behind.
func TestEncodeConcurrentlyPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWriterV2Blocks(io.Discard, 16)
	w.chain, w.encs = []BlockCodec{panicCodec{}}, make([][]byte, 1)
	stop := w.EncodeConcurrently(2)
	func() {
		defer func() {
			if v := recover(); v != "encoder panic" {
				t.Fatalf("recovered %v, want the encoder's panic", v)
			}
		}()
		for _, o := range frameObs(100) {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		t.Fatal("the encoder's panic was not re-raised")
	}()
	stop()
	settleGoroutines(t, before)
}
