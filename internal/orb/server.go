package orb

import (
	"bufio"
	"errors"
	"log/slog"
	"net"
	"sync"
)

// Server accepts ORB protocol connections on a TCP listener and dispatches
// requests to an Adapter. Each connection has one goroutine that reads a
// request, runs the servant and writes the reply before it reads the next: a
// Client never has two calls on one connection, so no request waits behind a
// slow servant, and a steady caller keeps landing on a goroutine whose stack
// is already grown.
type Server struct {
	adapter  *Adapter
	listener net.Listener
	log      *slog.Logger

	// mu guards conns and closed. wg tracks the accept loop and every
	// connection's goroutine; Close waits on it after releasing mu.
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

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	// in holds the request last read, out the reply being written; the
	// connection's goroutine owns both.
	var (
		reader = bufio.NewReader(conn)
		in     []byte
		out    Encoder
		f      frame
		ns     names
	)
	for {
		if err := readFrame(reader, &in, &f, &ns); err != nil {
			if !errors.Is(err, net.ErrClosed) && !s.isClosed() {
				s.log.Debug("orb server connection ended", "err", err)
			}
			return
		}
		if f.kind != msgRequest {
			s.log.Warn("orb server received non-request frame", "kind", f.kind)
			return // a client only sends requests: the peer is out of step
		}
		if err := s.serve(conn, &out, &f); err != nil {
			return // the peer is gone; its caller has already been failed
		}
	}
}

// serve runs the servant for request f and writes the reply to conn through
// out, on the goroutine that read the request.
func (s *Server) serve(conn net.Conn, out *Encoder, f *frame) error {
	enc, err := s.adapter.dispatchEnc(f.key, f.op, f.body)
	reply := frame{kind: msgReply, reqID: f.reqID}
	if err != nil {
		re := &RemoteError{Code: CodeApplication, Msg: err.Error()}
		errors.As(err, &re)
		reply.kind, reply.code, reply.msg = msgError, re.Code, re.Msg
	} else if enc != nil {
		reply.body = enc.Bytes()
	}
	err = writeFrame(conn, out, &reply)
	PutEncoder(enc)
	return err
}

func discardLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}
