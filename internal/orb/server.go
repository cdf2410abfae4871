package orb

import (
	"bufio"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
)

// Server accepts ORB protocol connections on a TCP listener and dispatches
// requests to an Adapter. A connection is served by a small set of kept
// worker goroutines: a request goes to an idle worker when there is one and
// to a new worker otherwise, so it never waits behind a slow servant, while
// a steady caller keeps landing on a goroutine whose stack is already grown.
type Server struct {
	adapter  *Adapter
	listener net.Listener
	log      *slog.Logger

	// mu guards conns and closed. wg tracks the accept loop and every
	// per-connection goroutine; Close waits on it after releasing mu.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a Server dispatching into adapter on ln. Pass a nil
// logger to discard logs. Call Start to begin accepting.
func NewServer(ln net.Listener, adapter *Adapter, log *slog.Logger) *Server {
	if log == nil {
		log = discardLogger()
	}
	return &Server{
		adapter:  adapter,
		listener: ln,
		log:      log,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Endpoint returns the server's reachable endpoint.
func (s *Server) Endpoint() Endpoint {
	return Endpoint{Net: NetTCP, Addr: s.listener.Addr().String()}
}

// Ref returns a reference to the object with the given key on this server.
func (s *Server) Ref(key string) ObjectRef {
	return ObjectRef{Endpoint: s.Endpoint(), Key: key}
}

// Start begins the accept loop in a background goroutine.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.acceptLoop()
}

// Close stops accepting, closes every live connection and waits for all
// server goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			if !s.isClosed() {
				s.log.Warn("orb server accept", "err", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// maxIdleWorkers bounds the workers one connection keeps between requests.
// A burst may run any number at once; the surplus exits as it finishes.
const maxIdleWorkers = 8

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	var (
		// writeMu serializes reply frames onto writer across the workers;
		// writeWaiters counts goroutines inside send so the flush can be
		// deferred to the last writer in a burst — N concurrent replies
		// share one flush instead of paying one syscall each.
		writeMu      sync.Mutex
		writeWaiters atomic.Int32
		reqWG        sync.WaitGroup
	)
	reader := bufio.NewReader(conn)
	writer := bufio.NewWriter(conn)

	send := func(f *frame) {
		writeWaiters.Add(1)
		writeMu.Lock()
		err := writeFrame(writer, f)
		// The last writer out flushes for everyone: if the decrement sees
		// other waiters, one of them is about to take writeMu and will
		// flush (or defer again) after its own write.
		if writeWaiters.Add(-1) == 0 && err == nil {
			_ = writer.Flush()
		}
		writeMu.Unlock()
	}

	// work hands a request to a worker that has announced itself in idle.
	// The hand-off is unbuffered, so a frame is never queued behind a busy
	// worker. A worker takes its idle slot before it writes its reply, not
	// after: the caller cannot have seen the reply — and sent its next
	// request — while the worker that served it still looks busy, so a
	// caller that waits for each reply is always served by the same
	// goroutine.
	work := make(chan *frame)
	idle := make(chan struct{}, maxIdleWorkers)
	worker := func(f *frame) {
		defer reqWG.Done()
		for f != nil {
			enc, err := s.adapter.dispatchEnc(f.key, f.op, f.body)
			reply := getFrame()
			reply.kind, reply.reqID = msgReply, f.reqID
			if err != nil {
				re := &RemoteError{Code: CodeApplication, Msg: err.Error()}
				errors.As(err, &re)
				reply.kind, reply.code, reply.msg = msgError, re.Code, re.Msg
			} else if enc != nil {
				reply.body = enc.Bytes()
			}
			putFrame(f) // request body is dead once dispatch returned
			kept := false
			select {
			case idle <- struct{}{}:
				kept = true
			default: // enough workers idle already: reply and exit
			}
			send(reply)
			reply.body = nil // owned by enc, not the frame pool
			putFrame(reply)
			PutEncoder(enc)
			if !kept {
				return
			}
			f = <-work // nil once the connection is gone
		}
	}

	for {
		f, err := readFrame(reader)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !s.isClosed() {
				s.log.Debug("orb server connection ended", "err", err)
			}
			break
		}
		if f.kind != msgRequest {
			s.log.Warn("orb server received non-request frame", "kind", f.kind)
			putFrame(f)
			continue
		}
		select {
		case <-idle:
			// Its worker is at most a reply write away from receiving.
			work <- f
		default:
			reqWG.Add(1)
			go worker(f)
		}
	}
	close(work)
	reqWG.Wait()
}

func discardLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}
