package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// readBufSize is the buffered reader's capacity. Every frame already
// in the kernel's receive queue, up to this many bytes, costs one
// read(2) between them, and a request frame that fits is decoded in
// place.
const readBufSize = 16 << 10

// framedConn is one end of a framed connection: the one reader path
// and the one writer path under both muxConn and Server.serveConn.
//
// The read side belongs to the end's single reading goroutine. It is
// buffered, so the 4-byte length prefix is peeked in place (nothing
// escapes) and a burst of pipelined frames arrives in one read.
//
// The write side is a combining writer with no goroutine of its own.
// send hands over one encoded frame; the sender that finds no write in
// progress writes its frame to the socket itself, and frames handed
// over while that write is in flight are appended to a queue under a
// short lock and leave together in the writer's next single write. A
// sender therefore waits on the socket only for a write it is making
// itself, and for that no longer than writeTimeout: a write still
// blocked then (the peer stopped draining the socket) is finished by a
// transient background goroutine, which fails the connection once the
// stall has lasted four times writeTimeout — the wedged or half-open
// socket. The write deadline is refreshed when it is about to fall
// short, about twice per writeTimeout, never per frame: from the
// sender's own clock reading for the write it makes itself, from a
// fresh one for each further write of a combining run.
type framedConn struct {
	conn net.Conn

	br      *bufio.Reader
	skip    int    // bytes of the last borrowed frame still to discard
	scratch []byte // holds a borrowed frame larger than br

	writeTimeout time.Duration
	// queueLimit, when positive, parks a sender while a write is in
	// flight and this many bytes are already queued behind it — the
	// server's backpressure on a peer that sends without reading. The
	// client leaves it zero: its callers must return by their
	// deadlines, and each queues at most one frame per call.
	queueLimit int
	// onWriteErr is called once, without the lock, by the goroutine
	// whose write failed the connection.
	onWriteErr func(error)

	wmu      sync.Mutex
	drained  sync.Cond      // signalled when the queue is taken and when a flush ends
	queue    []byte         // encoded frames waiting for the next write
	out      []byte         // the queue's other buffer: the frames being written
	flushing bool           // some goroutine is inside flush
	werr     error          // the first fatal write error; frames sent after it are dropped
	deadline time.Time      // the socket's current write deadline
	finisher sync.WaitGroup // background goroutines finishing a stalled write
}

func newFramedConn(conn net.Conn, writeTimeout time.Duration, onWriteErr func(error)) *framedConn {
	f := &framedConn{
		conn:         conn,
		br:           bufio.NewReaderSize(conn, readBufSize),
		writeTimeout: writeTimeout,
		onWriteErr:   onWriteErr,
	}
	f.drained.L = &f.wmu
	return f
}

// frameLen consumes the next frame's length prefix.
func (f *framedConn) frameLen() (int, error) {
	if f.skip > 0 {
		if _, err := f.br.Discard(f.skip); err != nil {
			return 0, err
		}
		f.skip = 0
	}
	hdr, err := f.br.Peek(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return 0, fmt.Errorf("%w: zero-length frame", errCorruptFrame)
	}
	if n > maxFrameSize {
		return 0, fmt.Errorf("%w: frame length %d exceeds limit %d", errCorruptFrame, n, maxFrameSize)
	}
	if _, err := f.br.Discard(4); err != nil {
		return 0, err
	}
	return int(n), nil
}

// frameBuffered reports whether the read buffer already holds the whole
// next frame, so reading it cannot block. It peeks the length prefix
// and reads nothing from the socket.
func (f *framedConn) frameBuffered() bool {
	avail := f.br.Buffered() - f.skip
	if avail < 4 {
		return false
	}
	hdr, _ := f.br.Peek(f.skip + 4) // already buffered: no fill
	return avail-4 >= int(binary.LittleEndian.Uint32(hdr[f.skip:]))
}

// readBorrowed reads one frame payload without giving it away: the
// bytes are valid until the next read on f. The server serves a point
// read before it reads again and detaches every other request's bytes;
// the client detaches each response it hands over. A frame that fits the read buffer is returned
// in place; a larger one goes through a scratch buffer that is reused,
// unless it grew past maxPooledFrame — the rule putFrameBuf applies to
// encode buffers — so one snapshot page does not pin its size for the
// connection's lifetime.
func (f *framedConn) readBorrowed() ([]byte, error) {
	n, err := f.frameLen()
	if err != nil {
		return nil, err
	}
	if n <= f.br.Size() {
		b, err := f.br.Peek(n)
		if err != nil {
			return nil, err
		}
		f.skip = n
		return b, nil
	}
	if cap(f.scratch) < n {
		f.scratch = make([]byte, n)
	}
	b := f.scratch[:n]
	if cap(f.scratch) > maxPooledFrame {
		f.scratch = nil
	}
	if _, err := io.ReadFull(f.br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// send hands one encoded frame to the writer. frame is not retained:
// it is on the socket or copied into the queue when send returns. now
// is the sender's latest clock reading. Write failures are reported
// through onWriteErr, not here; a frame sent to a failed connection is
// dropped.
func (f *framedConn) send(frame []byte, now time.Time) {
	f.wmu.Lock()
	for f.queueLimit > 0 && f.flushing && len(f.queue) >= f.queueLimit && f.werr == nil {
		f.drained.Wait()
		now = time.Now() // the reading taken before parking is stale
	}
	switch {
	case f.werr != nil:
		f.wmu.Unlock()
	case f.flushing:
		f.queue = append(f.queue, frame...)
		f.wmu.Unlock()
	default:
		f.flushing = true
		f.flush(frame, now, false)
	}
}

// takeQueue moves the queued frames to the writer's buffer, leaves an
// empty queue on the other buffer and wakes the senders parked on
// queueLimit. Every place the queue is emptied goes through here, so a
// parked sender cannot miss the moment there is room again. The caller
// holds wmu and is the flushing goroutine, the only user of out.
func (f *framedConn) takeQueue() []byte {
	if cap(f.out) > maxPooledFrame {
		f.out = nil // the rule putFrameBuf applies to encode buffers
	}
	f.queue, f.out = f.out[:0], f.queue
	f.drained.Broadcast()
	return f.out
}

// endFlush clears flushing — recording err, if the write failed, as
// the connection's terminal error — and wakes every parked sender: none
// may stay parked once no goroutine is left to take the queue. The
// caller holds wmu.
func (f *framedConn) endFlush(err error) {
	f.flushing = false
	if err != nil {
		f.werr = err
		f.queue, f.out = nil, nil
	}
	f.drained.Broadcast()
}

// flush writes batch and then whatever queued up behind it, one write
// per queue-full, until the queue is empty. The caller holds wmu and
// has set flushing; flush returns with wmu released. background marks
// the goroutine finishing a write that stalled under its sender: it may
// wait three more writeTimeouts, and its deadline error is final.
func (f *framedConn) flush(batch []byte, now time.Time, background bool) {
	limit := f.writeTimeout
	if background {
		limit *= 3
	}
	for {
		if left := f.deadline.Sub(now); left < limit/2 || left > limit {
			f.deadline = now.Add(limit)
			// The error is the one the write below reports.
			_ = f.conn.SetWriteDeadline(f.deadline)
		}
		f.wmu.Unlock()
		n, err := f.conn.Write(batch)
		f.wmu.Lock()
		if err != nil && !background && errors.Is(err, os.ErrDeadlineExceeded) {
			// The peer is not draining the socket. Release this sender;
			// the unwritten tail and everything queued go out, in order,
			// from a goroutine that may wait. flushing stays set for it.
			rest := append([]byte(nil), batch[n:]...)
			rest = append(rest, f.takeQueue()...)
			f.finisher.Add(1)
			f.wmu.Unlock()
			go func() {
				defer f.finisher.Done()
				f.wmu.Lock()
				f.flush(rest, time.Now(), true)
			}()
			return
		}
		if err != nil || len(f.queue) == 0 {
			f.endFlush(err)
			f.wmu.Unlock()
			if err != nil {
				f.onWriteErr(err)
			}
			return
		}
		batch = f.takeQueue()
		now = time.Now()
	}
}
