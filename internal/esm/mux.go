package esm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransportBroken marks a TCP transport whose connection is poisoned: a
// read or write failed (or timed out, or the peer spoke garbage) mid-call,
// so the byte stream can no longer be trusted to be aligned on frame
// boundaries. Every outstanding and future call on the transport fails with
// an error satisfying errors.Is(err, ErrTransportBroken). The condition is
// permanent for the connection — callers reconnect rather than retry: it is
// deliberately NOT a transient fault under the PR 2 retry policy
// (faultinject.IsTransient), which would re-send into a desynchronized
// stream.
var ErrTransportBroken = errors.New("esm: transport broken")

// DefaultCallTimeout bounds one call's network I/O on the TCP transport
// when the dialer does not choose its own limit.
const DefaultCallTimeout = 30 * time.Second

// maxCoalesce caps how many queued frames one writer flush gathers. It
// bounds flush latency under a firehose of small requests; 8K page frames
// hit the buffer-size flush condition long before the count.
const maxCoalesce = 64

// MuxStats is a point-in-time snapshot of one multiplexed connection's
// transport counters.
type MuxStats struct {
	Calls      int64 // completed calls
	InFlightHW int64 // high-water mark of concurrently outstanding calls
	Flushes    int64 // physical socket writes
	Frames     int64 // request frames written (Frames/Flushes = coalescing ratio)
	BytesOut   int64 // request bytes written, including frame headers
}

// muxResult is what a waiting call receives from the demux loop.
type muxResult struct {
	resp *Response
	err  error
}

// muxCall is one outstanding request. The channel has capacity 1 and
// receives exactly one result per registration, so completed calls can be
// pooled and reused.
type muxCall struct {
	done chan muxResult
}

var muxCallPool = sync.Pool{New: func() interface{} {
	return &muxCall{done: make(chan muxResult, 1)}
}}

// muxReq travels from Call to the writer goroutine.
type muxReq struct {
	seq uint64
	req *Request
}

// MuxTransport is a multiplexed, pipelined connection to a page server: any
// number of goroutines call concurrently, requests are coalesced into
// batched socket writes by a dedicated writer goroutine (group commit for
// the network), and a reader goroutine demultiplexes responses to the
// waiting calls by sequence number. One socket therefore keeps many
// requests in flight at once — whole sessions can share the connection.
//
// Failure semantics: any socket error, malformed inbound frame, or response
// bearing an unknown/duplicate sequence number poisons the connection (see
// ErrTransportBroken). Outstanding calls fail immediately; the transport
// never tries to resynchronize a damaged stream.
type MuxTransport struct {
	conn    net.Conn
	timeout time.Duration

	reqCh      chan muxReq
	quit       chan struct{} // closed exactly once, on poison/close
	writerDone chan struct{} // closed when the writer goroutine returns

	mu    sync.Mutex // guards calls and err
	calls map[uint64]*muxCall
	err   error // poison cause; non-nil => broken

	seq        atomic.Uint64
	callsDone  atomic.Int64
	inFlight   atomic.Int64
	inFlightHW atomic.Int64
	flushes    atomic.Int64
	frames     atomic.Int64
	bytesOut   atomic.Int64

	wg sync.WaitGroup // writer + reader goroutines
}

// DialTCP connects a multiplexed transport to a Serve-hosted ESM server,
// with the default call timeout.
func DialTCP(addr string) (*MuxTransport, error) {
	return DialTCPTimeout(addr, DefaultCallTimeout)
}

// DialTCPTimeout is DialTCP with an explicit per-call I/O deadline;
// timeout <= 0 disables deadlines entirely.
func DialTCPTimeout(addr string, timeout time.Duration) (*MuxTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMuxTransport(conn, timeout), nil
}

// NewMuxTransport runs the multiplexed protocol over an existing
// connection (tests use net.Pipe). timeout <= 0 disables deadlines.
func NewMuxTransport(conn net.Conn, timeout time.Duration) *MuxTransport {
	t := &MuxTransport{
		conn:       conn,
		timeout:    timeout,
		reqCh:      make(chan muxReq, maxCoalesce),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
		calls:      map[uint64]*muxCall{},
	}
	t.wg.Add(2)
	go t.writer()
	go t.reader()
	return t
}

// Stats snapshots the connection's transport counters.
func (t *MuxTransport) Stats() MuxStats {
	return MuxStats{
		Calls:      t.callsDone.Load(),
		InFlightHW: t.inFlightHW.Load(),
		Flushes:    t.flushes.Load(),
		Frames:     t.frames.Load(),
		BytesOut:   t.bytesOut.Load(),
	}
}

// brokenErr wraps the poison cause so errors.Is sees ErrTransportBroken.
func brokenErr(cause error) error {
	if cause == nil {
		return ErrTransportBroken
	}
	return fmt.Errorf("%w: %v", ErrTransportBroken, cause)
}

// poison marks the connection dead, fails every outstanding call, and wakes
// the writer and reader (closing the socket unblocks both). Safe to call
// from any goroutine; only the first cause sticks.
func (t *MuxTransport) poison(cause error) {
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		return
	}
	t.err = cause
	close(t.quit)
	pending := t.calls
	t.calls = map[uint64]*muxCall{}
	t.mu.Unlock()
	t.conn.Close()
	for _, c := range pending {
		c.done <- muxResult{err: brokenErr(cause)}
	}
}

// Call implements Transport. It is safe for concurrent use; each call
// blocks only its own goroutine while the connection pipelines others. When
// it returns, with an answer or with an error, nothing of the transport
// reads req any longer. The answer is pooled: Release it once done.
func (t *MuxTransport) Call(req *Request) (*Response, error) {
	seq := t.seq.Add(1)
	c := muxCallPool.Get().(*muxCall)

	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		muxCallPool.Put(c)
		return nil, brokenErr(err)
	}
	t.calls[seq] = c
	if t.timeout > 0 && len(t.calls) == 1 {
		// First outstanding call: arm the read deadline. The reader
		// re-arms it after every frame and disarms when the connection
		// goes idle, all under mu, so the deadline is live exactly while
		// a response is owed.
		t.conn.SetReadDeadline(time.Now().Add(t.timeout))
	}
	t.mu.Unlock()

	if n := t.inFlight.Add(1); n > t.inFlightHW.Load() {
		// Racy max is fine: the high-water mark is advisory telemetry.
		t.inFlightHW.Store(n)
	}
	defer t.inFlight.Add(-1)

	select {
	case t.reqCh <- muxReq{seq: seq, req: req}:
	case <-t.quit:
		// Lost the race with poison. The call was registered before the
		// quit channel closed, so poison's map snapshot holds it and a
		// broken-transport result is guaranteed to arrive on c.done;
		// fall through and wait for it like any other result.
	}

	res := <-c.done
	muxCallPool.Put(c)
	t.callsDone.Add(1)
	if res.err != nil {
		// The writer may have taken req off the queue and be encoding it
		// still: it exits within one flush of the poison, and only then is
		// req the caller's again.
		<-t.writerDone
		return nil, res.err
	}
	return res.resp, nil
}

// writer drains queued requests and coalesces them into single socket
// writes: one flush carries every request that queued while the previous
// flush was on the wire, mirroring the WAL's group-commit leader/follower
// batching. Each flush borrows its buffer from bufPool and puts it back
// once written, so an idle connection keeps none (as serveWriter does).
func (t *MuxTransport) writer() {
	defer t.wg.Done()
	defer close(t.writerDone)
	for {
		var first muxReq
		select {
		case first = <-t.reqCh:
		case <-t.quit:
			return
		}
		out := getBuf()
		buf := appendRequestFrame((*out)[:0], first.seq, first.req)
		frames := int64(1)
	coalesce:
		for frames < maxCoalesce && len(buf) < 1<<20 {
			select {
			case m := <-t.reqCh:
				buf = appendRequestFrame(buf, m.seq, m.req)
				frames++
			default:
				break coalesce
			}
		}
		if t.timeout > 0 {
			t.conn.SetWriteDeadline(time.Now().Add(t.timeout))
		}
		_, err := t.conn.Write(buf)
		*out = buf
		putBuf(out)
		if err != nil {
			t.poison(fmt.Errorf("write: %v", err))
			return
		}
		t.flushes.Add(1)
		t.frames.Add(frames)
		t.bytesOut.Add(int64(len(buf)))
	}
}

// reader demultiplexes response frames to their waiting calls by sequence
// number. A frame for an unknown sequence number — never issued, already
// answered (duplicate), or from a peer that lost framing — poisons the
// connection: the demux table is the only protection against delivering
// bytes to the wrong call.
func (t *MuxTransport) reader() {
	defer t.wg.Done()
	rd := bufio.NewReaderSize(t.conn, readWindow)
	hdr := make([]byte, frameHdrSize)
	for {
		// Each frame body lands in a pooled buffer and is decoded in place
		// into a pooled Response, which owns the buffer when its Data lies
		// in it: the caller's Release hands both back.
		seq, frame, body, err := readFrame(rd, hdr)
		if err != nil {
			t.poison(fmt.Errorf("read: %v", err))
			return
		}
		resp := pooledResponse()
		if err := resp.unmarshal(body, false); err != nil {
			putBuf(frame)
			resp.Release()
			t.poison(fmt.Errorf("response for seq %d: %v", seq, err))
			return
		}
		if resp.Data != nil {
			resp.buf = frame
		} else {
			putBuf(frame)
		}
		t.mu.Lock()
		c, ok := t.calls[seq]
		delete(t.calls, seq)
		if t.timeout > 0 && t.err == nil {
			if len(t.calls) > 0 {
				t.conn.SetReadDeadline(time.Now().Add(t.timeout))
			} else {
				t.conn.SetReadDeadline(time.Time{})
			}
		}
		t.mu.Unlock()
		if !ok {
			resp.Release()
			t.poison(fmt.Errorf("response for unknown or duplicate seq %d", seq))
			return
		}
		c.done <- muxResult{resp: resp}
	}
}

// Close implements Transport. Outstanding calls fail with
// ErrTransportBroken; closing a broken or closed transport only waits.
func (t *MuxTransport) Close() error {
	t.poison(errors.New("transport closed"))
	t.wg.Wait()
	return nil
}
