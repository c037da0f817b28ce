package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"spanner/internal/obs"
	"spanner/internal/serve"
)

// Server answers the binary protocol over TCP against a serve.Engine. It
// is a codec over the engine's serve.Transport, which holds every request
// rule, so this transport and HTTP differ only in encoding. Each connection
// performs the Hello/HelloAck handshake, then streams pipelined frames: a
// per-connection worker pool answers them concurrently and out of order
// (replies matched by correlation id).
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	pool sync.Pool // *stask
	tp   *serve.Transport

	connsGauge *obs.Gauge
	handshakes *obs.Counter
	badFrames  *obs.Counter
	batchSize  *obs.Histogram
}

// ServerConfig wires a Server to its engine and observability stack.
type ServerConfig struct {
	// Engine answers the queries. Required.
	Engine *serve.Engine
	// Obs receives transport-labeled metrics (nil disables).
	Obs *obs.Observer
	// Logger receives connection-level events (nil discards).
	Logger *slog.Logger
	// MaxFrame bounds accepted payloads (0 = DefaultMaxFrame).
	MaxFrame uint32
	// Workers is the per-connection worker pool size — how many frames of
	// one connection are answered concurrently (0 = 8).
	Workers int
	// GenOf maps a snapshot id to its cluster generation for reply
	// stamping (nil = always 0), mirroring the HTTP server's cluster
	// stamping.
	GenOf func(snapshot int64) int64
	// SLOStatus reports the current SLO state for healthz frames (nil =
	// "").
	SLOStatus func() string
}

// stask is one in-flight frame's scratch state, pooled per server so the
// steady-state query path allocates nothing.
type stask struct {
	corr  uint64
	typ   uint8
	q     Query
	qs    []Query
	reqs  []serve.Request
	wrep  Reply
	wreps []Reply
	buf   []byte
}

// NewServer builds a wire server over eng's engine.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("wire: ServerConfig.Engine is required")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{}), tp: cfg.Engine.Transport("wire", cfg.Obs)}
	s.pool.New = func() any { return new(stask) }
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		s.connsGauge = reg.Gauge("wire.conns")
		s.handshakes = reg.Counter("wire.handshakes")
		s.badFrames = reg.Counter("wire.bad_frames")
		s.batchSize = reg.Histogram("wire.batch_size")
	}
	return s, nil
}

// discardHandler is a no-op slog handler so the logger is never nil.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Serve accepts connections on ln until Shutdown (or a listener error).
// Returns nil after a Shutdown-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		if s.connsGauge != nil {
			s.connsGauge.Set(int64(len(s.conns)))
		}
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown drains: stop accepting, abort blocked reads so every
// connection's in-flight frames finish and its replies flush, then wait.
// On ctx expiry the remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		// Unblock the reader mid-Next; its worker pool then drains the
		// frames already accepted before the connection closes.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if s.connsGauge != nil {
		s.connsGauge.Set(int64(len(s.conns)))
	}
	s.mu.Unlock()
	c.Close()
	s.wg.Done()
}

// sconn is one accepted connection: a frame reader feeding a worker pool,
// writes serialized by wmu.
type sconn struct {
	srv   *Server
	c     net.Conn
	wmu   sync.Mutex
	wbuf  []byte // connection-scoped encode scratch (handshake, errors)
	tasks chan *stask
}

func (cn *sconn) write(frame []byte) error {
	cn.wmu.Lock()
	_, err := cn.c.Write(frame)
	cn.wmu.Unlock()
	return err
}

// writeError sends a typed error frame (corr 0 = connection-scoped).
func (cn *sconn) writeError(corr uint64, code Code, retryAfterMS uint32, detail string) {
	cn.wmu.Lock()
	cn.wbuf = AppendErrorFrame(cn.wbuf[:0], corr, ErrorFrame{
		Code: code, RetryAfterMS: retryAfterMS, Detail: detail,
	})
	_, _ = cn.c.Write(cn.wbuf)
	cn.wmu.Unlock()
}

func (s *Server) handleConn(c net.Conn) {
	defer s.dropConn(c)
	cn := &sconn{srv: s, c: c, tasks: make(chan *stask, 4*s.cfg.Workers)}
	fr := NewReader(c, s.cfg.MaxFrame)

	// Handshake: the first frame must be a Hello with our version; anything
	// else is refused with a typed error so a mispointed HTTP client (or an
	// old binary) fails loudly instead of hanging.
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	hdr, payload, err := fr.Next()
	if err != nil || hdr.Type != MsgHello {
		cn.writeError(0, CodeBadFrame, 0, "expected Hello frame")
		return
	}
	var hello Hello
	if err := DecodeHello(payload, &hello); err != nil {
		cn.writeError(0, CodeBadFrame, 0, "malformed Hello")
		return
	}
	if hello.Version != Version {
		cn.writeError(0, CodeVersion, 0,
			fmt.Sprintf("server speaks version %d, client sent %d", Version, hello.Version))
		return
	}
	c.SetReadDeadline(time.Time{})
	// The clear above may have erased a Shutdown read-deadline abort that
	// fired mid-handshake. Shutdown flips closed (under the lock) before
	// touching deadlines, so re-checking here closes the window: either we
	// see closed and bail, or Shutdown's abort lands after our clear and
	// sticks. Without this a client that handshakes but never sends a frame
	// could stall a no-deadline Shutdown forever.
	s.mu.Lock()
	closing := s.closed
	s.mu.Unlock()
	if closing {
		cn.writeError(0, CodeClosed, 0, "server shutting down")
		return
	}
	snap := s.cfg.Engine.Snapshot()
	ack := HelloAck{
		Version:  Version,
		Features: Features & hello.Features,
		N:        int32(snap.N()),
		Snapshot: snap.ID,
		Gen:      s.genOf(snap.ID),
	}
	cn.wmu.Lock()
	cn.wbuf = AppendHelloAckFrame(cn.wbuf[:0], ack)
	_, werr := c.Write(cn.wbuf)
	cn.wmu.Unlock()
	if werr != nil {
		return
	}
	if s.handshakes != nil {
		s.handshakes.Inc()
	}

	var workers sync.WaitGroup
	workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer workers.Done()
			for t := range cn.tasks {
				s.process(cn, t)
			}
		}()
	}
	// Always drain the pool before the connection drops: accepted frames
	// get answers even when the reader dies (or Shutdown aborts it).
	defer workers.Wait()
	defer close(cn.tasks)

	for {
		hdr, payload, err := fr.Next()
		if err != nil {
			s.mu.Lock()
			closing := s.closed
			s.mu.Unlock()
			switch {
			case closing:
				// Shutdown aborted the read via SetReadDeadline; say a
				// typed goodbye so pipelined clients fail fast with the
				// retryable "server gone" classification.
				cn.writeError(0, CodeClosed, 0, "server shutting down")
			case err == io.EOF || errors.Is(err, net.ErrClosed):
			default:
				if s.badFrames != nil && (errors.Is(err, ErrMagic) || errors.Is(err, ErrChecksum) ||
					errors.Is(err, ErrTruncated) || errors.Is(err, ErrTooLarge)) {
					s.badFrames.Inc()
				}
				// Framing is lost: report and drop the connection —
				// resynchronizing a corrupt stream would risk
				// misattributed replies.
				cn.writeError(0, CodeBadFrame, 0, err.Error())
			}
			return
		}
		t := s.pool.Get().(*stask)
		t.corr, t.typ = hdr.Corr, hdr.Type
		// Decode into the task before the next Next() reuses the payload
		// buffer.
		switch hdr.Type {
		case MsgQuery:
			if err := DecodeQuery(payload, &t.q); err != nil {
				s.pool.Put(t)
				if s.badFrames != nil {
					s.badFrames.Inc()
				}
				cn.writeError(hdr.Corr, CodeBadFrame, 0, "malformed query payload")
				return
			}
		case MsgBatch:
			t.qs, err = DecodeBatch(payload, t.qs)
			if err != nil {
				s.pool.Put(t)
				if s.badFrames != nil {
					s.badFrames.Inc()
				}
				cn.writeError(hdr.Corr, CodeBadFrame, 0, "malformed batch payload")
				return
			}
		case MsgHealthz:
			// No payload.
		default:
			s.pool.Put(t)
			cn.writeError(hdr.Corr, CodeBadFrame, 0,
				fmt.Sprintf("unexpected frame type %d", hdr.Type))
			return
		}
		cn.tasks <- t
	}
}

func (s *Server) genOf(snapshot int64) int64 {
	if s.cfg.GenOf == nil {
		return 0
	}
	return s.cfg.GenOf(snapshot)
}

// process answers one frame on a worker goroutine and returns the task to
// the pool.
func (s *Server) process(cn *sconn, t *stask) {
	var err error
	switch t.typ {
	case MsgQuery:
		err = s.processQuery(cn, t)
	case MsgBatch:
		err = s.processBatch(cn, t)
	case MsgHealthz:
		err = s.processHealthz(cn, t)
	}
	if err != nil {
		// A write failure means the peer is gone; the reader will notice on
		// its next Read and tear the connection down.
		s.cfg.Logger.Debug("wire: reply write failed", "err", err)
	}
	s.pool.Put(t)
}

func (s *Server) processQuery(cn *sconn, t *stask) error {
	start := time.Now()
	s.fillReply(&t.wrep, s.tp.Query(request(&t.q)))
	t.buf = AppendReplyFrame(t.buf[:0], t.corr, &t.wrep)
	err := cn.write(t.buf)
	s.tp.Sent(start)
	return err
}

func (s *Server) processBatch(cn *sconn, t *stask) error {
	start := time.Now()
	t.reqs = t.reqs[:0]
	for i := range t.qs {
		t.reqs = append(t.reqs, request(&t.qs[i]))
	}
	reps, err := s.tp.QueryBatch(t.reqs)
	if err != nil {
		c := serve.CodeOf(err)
		cn.writeError(t.corr, c, uint32(c.RetryAfter().Milliseconds()), err.Error())
		s.tp.Sent(start)
		return nil
	}
	s.batchSize.Observe(int64(len(reps)))
	if cap(t.wreps) < len(reps) {
		t.wreps = make([]Reply, len(reps))
	}
	t.wreps = t.wreps[:len(reps)]
	for i := range reps {
		s.fillReply(&t.wreps[i], reps[i])
	}
	t.buf = AppendBatchReplyFrame(t.buf[:0], t.corr, t.wreps)
	err = cn.write(t.buf)
	s.tp.Sent(start)
	return err
}

// request decodes a wire query into an engine request. Bytes out of range
// pass through: the engine refuses them.
func request(q *Query) serve.Request {
	req := serve.Request{
		Type:          serve.QueryType(q.Type),
		U:             q.U,
		V:             q.V,
		Priority:      serve.Priority(q.Priority),
		AllowDegraded: q.AllowDegraded,
	}
	if q.DeadlineMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(q.DeadlineMS) * time.Millisecond)
	}
	return req
}

func (s *Server) processHealthz(cn *sconn, t *stask) error {
	snap := s.cfg.Engine.Snapshot()
	h := HealthzReply{
		N:        int32(snap.N()),
		Snapshot: snap.ID,
		Gen:      s.genOf(snap.ID),
		Status:   "ok",
	}
	if s.cfg.SLOStatus != nil {
		h.SLO = s.cfg.SLOStatus()
	}
	t.buf = AppendHealthzReplyFrame(t.buf[:0], t.corr, h)
	return cn.write(t.buf)
}

// fillReply encodes an engine reply, stamping the cluster generation.
func (s *Server) fillReply(w *Reply, r serve.Reply) {
	w.Type = uint8(r.Type)
	w.Code = serve.CodeOf(r.Err)
	w.Detail = ""
	if r.Err != nil {
		w.Detail = r.Err.Error()
	}
	w.Cached = r.Cached
	w.Degraded = r.Degraded
	w.Composed = r.Composed
	w.U, w.V = r.U, r.V
	w.Dist = r.Dist
	w.HasBound = r.HasBound()
	w.Bound = 0
	if w.HasBound {
		w.Bound = r.Bound
	}
	w.Snapshot = r.SnapshotID
	w.Gen = s.genOf(r.SnapshotID)
	w.Path = append(w.Path[:0], r.Path...)
}
