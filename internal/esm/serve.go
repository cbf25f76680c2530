package esm

import (
	"bufio"
	"net"
	"sync"
)

// serveWorkers bounds how many requests one connection processes
// concurrently. Workers exist so a slow request (a cold page read waiting
// on the disk) never head-of-line-blocks the requests queued behind it on
// the same socket — a commit pipelined behind a page fetch completes the
// moment the log force does.
const serveWorkers = 32

// Handler answers one protocol request. *Server is the canonical
// implementation; repl.Node satisfies it too, interposing replication
// control (op dispatch, leader fencing) in front of a swappable inner
// server — which is how one listener keeps serving across a promotion.
type Handler interface {
	Handle(req *Request) *Response
}

// netStatsServer resolves the *Server whose transport counters a handler's
// traffic should feed: the handler itself, or — for wrappers like
// repl.Node — whatever current server it exposes. May be nil (counters are
// then skipped; the note methods are nil-receiver-safe).
func netStatsServer(h Handler) *Server {
	switch v := h.(type) {
	case *Server:
		return v
	case interface{ CurrentServer() *Server }:
		return v.CurrentServer()
	}
	return nil
}

// Serve accepts connections on l and dispatches their requests to h until
// l is closed. It is intended to run in its own goroutine.
//
// Each connection runs the multiplexed protocol: a reader goroutine decodes
// frames and hands each request to a worker goroutine (at most serveWorkers
// per connection, started as the load asks for them and kept for the life
// of the connection), and a writer goroutine coalesces completed responses
// into single writev-style socket flushes. Responses are sent as workers
// finish — out of request order when a fast request overtakes a slow one —
// and the client's demux matches them back up by seq.
//
// A worker decodes every request it serves into the one Request it keeps,
// so a Handler may keep neither the Request nor any slice of its Data past
// Handle (strings, Name included, are its own). It releases each response
// (Response.Release) once the response is framed.
func Serve(l net.Listener, h Handler) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go serveConn(conn, h)
	}
}

// serveJob is one request frame on its way from the reader to a worker.
type serveJob struct {
	seq   uint64
	frame *[]byte // pooled buffer body lies in; the worker hands it back
	body  []byte
}

func serveConn(conn net.Conn, h Handler) {
	defer conn.Close()
	srv := netStatsServer(h)

	// respCh carries framed, pooled response buffers from workers to the
	// writer. Buffered so a worker finishing mid-flush does not block.
	respCh := make(chan *[]byte, serveWorkers)
	writerDone := make(chan struct{})
	go serveWriter(conn, srv, respCh, writerDone)

	// A worker serves the job it is started with, then every job it
	// receives until jobs closes. It decodes each request into the one
	// Request it keeps and releases each response once it is framed.
	jobs := make(chan serveJob)
	var workers sync.WaitGroup
	worker := func(job serveJob) {
		defer workers.Done()
		var req Request
		for ok := true; ok; job, ok = <-jobs {
			var resp *Response
			if err := req.unmarshal(job.body, false); err != nil {
				resp = pooledResponse()
				resp.Err = err.Error()
			} else {
				resp = h.Handle(&req)
			}
			out := getBuf()
			*out = appendResponseFrame((*out)[:0], job.seq, resp)
			resp.Release()
			putBuf(job.frame) // handlers never retain request data past Handle
			select {
			case respCh <- out:
			case <-writerDone:
				putBuf(out)
			}
			srv.doneNetRequest()
			// Keep nothing of the frame, which is back in the pool, alive
			// while idle; the next frame is decoded into a zeroed Request.
			req, job = Request{}, serveJob{}
		}
	}

	// A frame goes to an idle worker if one is waiting, else to a new one
	// while fewer than serveWorkers run, else to the first to come free:
	// a slow request never holds up the ones behind it unless serveWorkers
	// are in flight.
	started := 0
	rd := bufio.NewReaderSize(conn, readWindow)
	hdr := make([]byte, frameHdrSize)
	for {
		// Each frame body gets its own pooled buffer: the worker decodes
		// the request in place (no-copy unmarshal) and owns the buffer
		// until its response is framed.
		seq, frame, body, err := readFrame(rd, hdr)
		if err != nil {
			break
		}
		srv.noteNetRequest()
		job := serveJob{seq: seq, frame: frame, body: body}
		select {
		case jobs <- job:
			continue
		default:
		}
		if started < serveWorkers {
			started++
			workers.Add(1)
			go worker(job)
			continue
		}
		jobs <- job
	}
	close(jobs)
	workers.Wait()
	close(respCh)
	<-writerDone
}

// serveWriter drains framed responses and coalesces everything queued into
// one vectored socket write (net.Buffers uses writev on TCP). If a write
// fails, the connection is closed — which unblocks the reader — and the
// writer keeps draining so no worker is left stuck on respCh.
func serveWriter(conn net.Conn, srv *Server, respCh <-chan *[]byte, done chan<- struct{}) {
	defer close(done)
	// WriteTo consumes the vector it writes, backing array and all, so each
	// flush builds its vector afresh over backing: appending to the consumed
	// one would allocate a new array every flush.
	backing := make(net.Buffers, serveWorkers)
	var vecs net.Buffers
	used := make([]*[]byte, 0, serveWorkers)
	broken := false
	for first := range respCh {
		vecs = backing[:0]
		used = used[:0]
		vecs = append(vecs, *first)
		used = append(used, first)
	coalesce:
		for len(used) < serveWorkers {
			select {
			case b, ok := <-respCh:
				if !ok {
					break coalesce
				}
				vecs = append(vecs, *b)
				used = append(used, b)
			default:
				break coalesce
			}
		}
		if !broken {
			var bytes int64
			for _, v := range vecs {
				bytes += int64(len(v))
			}
			if _, err := vecs.WriteTo(conn); err != nil {
				broken = true
				conn.Close()
			} else {
				srv.noteNetFlush(int64(len(used)), bytes)
			}
		}
		for _, b := range used {
			putBuf(b)
		}
		clear(used) // the buffers are the pool's again: pin none while idle
	}
}
