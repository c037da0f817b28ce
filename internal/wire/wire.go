// Package wire is the binary serving protocol: length-prefixed, checksummed
// frames carrying query/batch/healthz requests and replies over a plain TCP
// stream, replacing HTTP/JSON on the hot path.
//
// The codec reuses the internal/artifact discipline — magic bytes, an
// explicit version, length prefixes validated against what is actually
// present before anything is allocated, an FNV-1a checksum over every frame,
// and typed decode errors (never a panic) — but frames a conversation
// instead of a file.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "SW"
//	2       1     message type (Msg*)
//	3       1     frame flags (reserved, 0)
//	4       4     payload length in bytes
//	8       8     correlation id (echoed verbatim in the response frame)
//	16      len   payload (per-message layout; see Append*/Decode*)
//	16+len  8     FNV-1a 64 of header+payload
//
// The correlation id makes the stream fully pipelined: a client may have any
// number of frames in flight and the server may answer them in any order;
// responses are matched by id, never by position. Correlation id 0 is
// reserved for connection-scoped frames (handshake, fatal errors).
//
// Versioning: the Hello/HelloAck handshake carries a protocol version and a
// feature bitmask. A server refuses an unknown major version with an Error
// frame (CodeVersion) and closes; features are intersected, so both sides
// use exactly the capabilities the other advertised. Adding a message type
// or a feature bit is backward-compatible; changing a frame layout requires
// a version bump.
package wire

import (
	"errors"
	"fmt"
	"io"
	"math"

	"spanner/internal/serve"
)

// Protocol constants.
const (
	magic0 = 'S'
	magic1 = 'W'

	// Version is the protocol version exchanged in Hello/HelloAck. Peers
	// with different versions do not talk (the layouts below are v1).
	Version = 1

	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// TrailerSize is the checksum trailer length in bytes.
	TrailerSize = 8

	// DefaultMaxFrame bounds a peer's payload allocation. Path replies are
	// the largest legitimate frames (4 bytes per hop); 16 MiB covers paths
	// on multi-million-vertex graphs with room to spare.
	DefaultMaxFrame = 16 << 20
)

// Feature bits advertised in the handshake.
const (
	// FeatureBatch: the peer accepts MsgBatch frames.
	FeatureBatch uint64 = 1 << 0
	// FeaturePipeline: the peer answers out of order (responses matched by
	// correlation id, not position).
	FeaturePipeline uint64 = 1 << 1

	// Features is everything this implementation speaks.
	Features = FeatureBatch | FeaturePipeline
)

// Message types.
const (
	MsgHello        uint8 = 1 // client → server, first frame on a connection
	MsgHelloAck     uint8 = 2 // server → client, handshake accept
	MsgQuery        uint8 = 3 // one point query
	MsgReply        uint8 = 4 // one answer (also per-request typed errors)
	MsgBatch        uint8 = 5 // N queries answered in input order
	MsgBatchReply   uint8 = 6 // N replies
	MsgHealthz      uint8 = 7 // liveness probe
	MsgHealthzReply uint8 = 8
	MsgError        uint8 = 9 // typed error; corr 0 = connection-fatal
)

// Query type and priority bytes carried in Query.Type / Query.Priority.
// These mirror the serve package's QueryType and Priority values so the
// engine consumes them directly; a test pins the correspondence.
const (
	TypeDist  uint8 = 0
	TypePath  uint8 = 1
	TypeRoute uint8 = 2

	PriorityHigh uint8 = 0
	PriorityLow  uint8 = 1
)

// Typed decode errors, matchable with errors.Is. A decoder returns these —
// it never panics and never allocates more than the configured frame cap.
var (
	ErrMagic     = errors.New("wire: bad frame magic")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrChecksum  = errors.New("wire: frame checksum mismatch")
	ErrTooLarge  = errors.New("wire: frame exceeds size limit")
	ErrCorrupt   = errors.New("wire: corrupt payload")
	ErrVersion   = errors.New("wire: protocol version mismatch")
)

// Code is the typed error taxonomy carried in Reply and Error frames: the
// serve package's transport-neutral codes, whose numbering this protocol
// fixes.
type Code = serve.Code

const (
	CodeOK          = serve.CodeOK
	CodeNoRoute     = serve.CodeNoRoute
	CodeBadVertex   = serve.CodeBadVertex
	CodeBadQuery    = serve.CodeBadQuery
	CodeOverloaded  = serve.CodeOverloaded
	CodeDeadline    = serve.CodeDeadline
	CodeClosed      = serve.CodeClosed
	CodeBrownout    = serve.CodeBrownout
	CodePartitioned = serve.CodePartitioned
	CodeRejected    = serve.CodeRejected
	CodeVersion     = serve.CodeVersion
	CodeBadFrame    = serve.CodeBadFrame
	CodeInternal    = serve.CodeInternal
)

// Header is one decoded frame header.
type Header struct {
	Type  uint8
	Flags uint8
	Len   uint32
	Corr  uint64
}

// Hello is the client's opening frame.
type Hello struct {
	Version  uint32
	Features uint64
}

// HelloAck is the server's handshake accept: the negotiated feature set
// plus enough about the serving snapshot to size a workload.
type HelloAck struct {
	Version  uint32
	Features uint64
	N        int32 // vertex count of the serving snapshot
	Snapshot int64
	Gen      int64 // cluster generation (0 outside cluster serving)
}

// Query is one point query in wire form.
type Query struct {
	Type          uint8 // serve.QueryType
	Priority      uint8 // serve.Priority
	AllowDegraded bool
	U, V          int32
	DeadlineMS    int64
}

// Reply flag bits.
const (
	replyCached   = 1 << 0
	replyDegraded = 1 << 1
	replyComposed = 1 << 2
	replyHasBound = 1 << 3
)

// Reply is one answer in wire form. Code/Detail carry the typed per-request
// error taxonomy (CodeOK and "" on success); Detail is the engine's error
// text so both transports surface byte-identical messages.
type Reply struct {
	Type     uint8
	Code     Code
	Cached   bool
	Degraded bool
	Composed bool
	HasBound bool
	U, V     int32
	Dist     int32
	Bound    int32
	Snapshot int64
	Gen      int64
	Path     []int32
	Detail   string
}

// ErrorFrame is a typed error: per-request when Corr echoes a request id,
// connection-fatal when Corr is 0.
type ErrorFrame struct {
	Code         Code
	RetryAfterMS uint32
	Detail       string
}

// HealthzReply is the liveness answer.
type HealthzReply struct {
	N        int32
	Snapshot int64
	Gen      int64
	Status   string
	SLO      string
}

// --- FNV-1a over bytes (the frame checksum) ---

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// --- little-endian append/read helpers ---

func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func get64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// --- frame construction ---
//
// Every Append*Frame builds a complete frame (header + payload + checksum)
// onto dst and returns the extended slice; with a reused dst the encode
// path allocates nothing in steady state.

// beginFrame appends the header with a length placeholder and returns the
// frame's start offset for finishFrame.
func beginFrame(dst []byte, typ uint8, corr uint64) ([]byte, int) {
	start := len(dst)
	dst = append(dst, magic0, magic1, typ, 0)
	dst = le32(dst, 0) // payload length, patched by finishFrame
	dst = le64(dst, corr)
	return dst, start
}

// finishFrame patches the payload length and appends the checksum.
func finishFrame(dst []byte, start int) []byte {
	payload := uint32(len(dst) - start - HeaderSize)
	dst[start+4] = byte(payload)
	dst[start+5] = byte(payload >> 8)
	dst[start+6] = byte(payload >> 16)
	dst[start+7] = byte(payload >> 24)
	return le64(dst, fnvBytes(fnvOffset, dst[start:]))
}

// AppendHelloFrame appends a client Hello frame.
func AppendHelloFrame(dst []byte, h Hello) []byte {
	dst, start := beginFrame(dst, MsgHello, 0)
	dst = le32(dst, h.Version)
	dst = le64(dst, h.Features)
	return finishFrame(dst, start)
}

// AppendHelloAckFrame appends the server's handshake accept.
func AppendHelloAckFrame(dst []byte, a HelloAck) []byte {
	dst, start := beginFrame(dst, MsgHelloAck, 0)
	dst = le32(dst, a.Version)
	dst = le64(dst, a.Features)
	dst = le32(dst, uint32(a.N))
	dst = le64(dst, uint64(a.Snapshot))
	dst = le64(dst, uint64(a.Gen))
	return finishFrame(dst, start)
}

// appendQueryBody appends the 20-byte query record shared by MsgQuery and
// MsgBatch payloads.
func appendQueryBody(dst []byte, q Query) []byte {
	var fl uint8
	if q.AllowDegraded {
		fl = 1
	}
	dst = append(dst, q.Type, q.Priority, fl, 0)
	dst = le32(dst, uint32(q.U))
	dst = le32(dst, uint32(q.V))
	return le64(dst, uint64(q.DeadlineMS))
}

const queryBodySize = 20

// AppendQueryFrame appends one point query.
func AppendQueryFrame(dst []byte, corr uint64, q Query) []byte {
	dst, start := beginFrame(dst, MsgQuery, corr)
	dst = appendQueryBody(dst, q)
	return finishFrame(dst, start)
}

// AppendBatchFrame appends a batch of queries answered in input order.
func AppendBatchFrame(dst []byte, corr uint64, qs []Query) []byte {
	dst, start := beginFrame(dst, MsgBatch, corr)
	dst = le32(dst, uint32(len(qs)))
	for _, q := range qs {
		dst = appendQueryBody(dst, q)
	}
	return finishFrame(dst, start)
}

// appendReplyBody appends one reply record (shared by MsgReply and
// MsgBatchReply payloads).
func appendReplyBody(dst []byte, r *Reply) []byte {
	var fl uint8
	if r.Cached {
		fl |= replyCached
	}
	if r.Degraded {
		fl |= replyDegraded
	}
	if r.Composed {
		fl |= replyComposed
	}
	if r.HasBound {
		fl |= replyHasBound
	}
	dst = append(dst, r.Type, fl, uint8(r.Code), 0)
	dst = le32(dst, uint32(r.U))
	dst = le32(dst, uint32(r.V))
	dst = le32(dst, uint32(r.Dist))
	dst = le32(dst, uint32(r.Bound))
	dst = le64(dst, uint64(r.Snapshot))
	dst = le64(dst, uint64(r.Gen))
	dst = le32(dst, uint32(len(r.Path)))
	for _, p := range r.Path {
		dst = le32(dst, uint32(p))
	}
	dst = le32(dst, uint32(len(r.Detail)))
	return append(dst, r.Detail...)
}

// AppendReplyFrame appends one answer.
func AppendReplyFrame(dst []byte, corr uint64, r *Reply) []byte {
	dst, start := beginFrame(dst, MsgReply, corr)
	dst = appendReplyBody(dst, r)
	return finishFrame(dst, start)
}

// AppendBatchReplyFrame appends a batch answer, replies in input order.
func AppendBatchReplyFrame(dst []byte, corr uint64, rs []Reply) []byte {
	dst, start := beginFrame(dst, MsgBatchReply, corr)
	dst = le32(dst, uint32(len(rs)))
	for i := range rs {
		dst = appendReplyBody(dst, &rs[i])
	}
	return finishFrame(dst, start)
}

// AppendHealthzFrame appends a liveness probe (empty payload).
func AppendHealthzFrame(dst []byte, corr uint64) []byte {
	dst, start := beginFrame(dst, MsgHealthz, corr)
	return finishFrame(dst, start)
}

// AppendHealthzReplyFrame appends the liveness answer.
func AppendHealthzReplyFrame(dst []byte, corr uint64, h HealthzReply) []byte {
	dst, start := beginFrame(dst, MsgHealthzReply, corr)
	dst = le32(dst, uint32(h.N))
	dst = le64(dst, uint64(h.Snapshot))
	dst = le64(dst, uint64(h.Gen))
	dst = le32(dst, uint32(len(h.Status)))
	dst = append(dst, h.Status...)
	dst = le32(dst, uint32(len(h.SLO)))
	dst = append(dst, h.SLO...)
	return finishFrame(dst, start)
}

// AppendErrorFrame appends a typed error frame.
func AppendErrorFrame(dst []byte, corr uint64, e ErrorFrame) []byte {
	dst, start := beginFrame(dst, MsgError, corr)
	dst = append(dst, uint8(e.Code), 0, 0, 0)
	dst = le32(dst, e.RetryAfterMS)
	dst = le32(dst, uint32(len(e.Detail)))
	dst = append(dst, e.Detail...)
	return finishFrame(dst, start)
}

// --- payload decoding ---
//
// Decoders work over the payload bytes a Reader already verified (length
// and checksum) and decode into caller-owned structs so a steady-state
// reply decode reuses the destination's path capacity and allocates only
// for non-empty detail strings (error replies). Every length prefix is
// validated against the bytes actually present before use.

// preader is a bounds-checked payload reader: every read reports
// ErrCorrupt instead of running past the end.
type preader struct {
	p   []byte
	off int
	err error
}

func (r *preader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

func (r *preader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.p) {
		r.fail()
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *preader) skip(n int) {
	if r.err != nil || r.off+n > len(r.p) {
		r.fail()
		return
	}
	r.off += n
}

func (r *preader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.p) {
		r.fail()
		return 0
	}
	v := get32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *preader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.p) {
		r.fail()
		return 0
	}
	v := get64(r.p[r.off:])
	r.off += 8
	return v
}

// count validates a length prefix claiming n records of recSize bytes
// against what remains, so corrupt prefixes fail typed instead of driving
// a huge allocation (the artifact reader's rule, applied per frame).
func (r *preader) count(recSize int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if n > uint32(math.MaxInt32) || int(n) > (len(r.p)-r.off)/recSize {
		r.fail()
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string. Allocates only when non-empty.
func (r *preader) str() string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.p[r.off : r.off+n])
	r.off += n
	return s
}

func (r *preader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.p) {
		return ErrCorrupt
	}
	return nil
}

// DecodeHello decodes a MsgHello payload.
func DecodeHello(p []byte, h *Hello) error {
	r := preader{p: p}
	h.Version = r.u32()
	h.Features = r.u64()
	return r.done()
}

// DecodeHelloAck decodes a MsgHelloAck payload.
func DecodeHelloAck(p []byte, a *HelloAck) error {
	r := preader{p: p}
	a.Version = r.u32()
	a.Features = r.u64()
	a.N = int32(r.u32())
	a.Snapshot = int64(r.u64())
	a.Gen = int64(r.u64())
	return r.done()
}

func decodeQueryBody(r *preader, q *Query) {
	q.Type = r.u8()
	q.Priority = r.u8()
	q.AllowDegraded = r.u8()&1 != 0
	r.skip(1)
	q.U = int32(r.u32())
	q.V = int32(r.u32())
	q.DeadlineMS = int64(r.u64())
}

// DecodeQuery decodes a MsgQuery payload into q.
func DecodeQuery(p []byte, q *Query) error {
	r := preader{p: p}
	decodeQueryBody(&r, q)
	return r.done()
}

// DecodeBatch decodes a MsgBatch payload, reusing qs's capacity. Returns
// the decoded queries.
func DecodeBatch(p []byte, qs []Query) ([]Query, error) {
	r := preader{p: p}
	n := r.count(queryBodySize)
	if r.err != nil {
		return qs[:0], r.err
	}
	if cap(qs) < n {
		qs = make([]Query, n)
	}
	qs = qs[:n]
	for i := range qs {
		decodeQueryBody(&r, &qs[i])
	}
	if err := r.done(); err != nil {
		return qs[:0], err
	}
	return qs, nil
}

func decodeReplyBody(r *preader, rep *Reply) {
	rep.Type = r.u8()
	fl := r.u8()
	rep.Code = Code(r.u8())
	r.skip(1)
	rep.Cached = fl&replyCached != 0
	rep.Degraded = fl&replyDegraded != 0
	rep.Composed = fl&replyComposed != 0
	rep.HasBound = fl&replyHasBound != 0
	rep.U = int32(r.u32())
	rep.V = int32(r.u32())
	rep.Dist = int32(r.u32())
	rep.Bound = int32(r.u32())
	rep.Snapshot = int64(r.u64())
	rep.Gen = int64(r.u64())
	n := r.count(4)
	if r.err != nil {
		rep.Path = rep.Path[:0]
		rep.Detail = ""
		return
	}
	if cap(rep.Path) < n {
		rep.Path = make([]int32, n)
	}
	rep.Path = rep.Path[:n]
	for i := range rep.Path {
		rep.Path[i] = int32(r.u32())
	}
	rep.Detail = r.str()
}

// DecodeReply decodes a MsgReply payload into rep, reusing rep.Path's
// capacity. Zero-alloc for path-less replies with empty detail.
func DecodeReply(p []byte, rep *Reply) error {
	r := preader{p: p}
	decodeReplyBody(&r, rep)
	return r.done()
}

// DecodeBatchReply decodes a MsgBatchReply payload, reusing rs (and each
// entry's path capacity).
func DecodeBatchReply(p []byte, rs []Reply) ([]Reply, error) {
	r := preader{p: p}
	// The smallest reply record is its fixed 36 bytes plus two zero length
	// prefixes.
	const minReplySize = 44
	n := r.count(minReplySize)
	if r.err != nil {
		return rs[:0], r.err
	}
	if cap(rs) < n {
		next := make([]Reply, n)
		copy(next, rs[:cap(rs)])
		rs = next
	}
	rs = rs[:n]
	for i := range rs {
		decodeReplyBody(&r, &rs[i])
	}
	if err := r.done(); err != nil {
		return rs[:0], err
	}
	return rs, nil
}

// BatchReplyIter walks a MsgBatchReply payload one entry at a time without
// materialising a []Reply, so a caller fanning replies out to independent
// waiters can decode each entry straight into its owner's reusable Reply.
type BatchReplyIter struct {
	r preader
	// N is the entry count declared by the payload.
	N int
}

// IterBatchReply validates the count prefix and returns an iterator over the
// payload's reply records.
func IterBatchReply(p []byte) (BatchReplyIter, error) {
	it := BatchReplyIter{r: preader{p: p}}
	const minReplySize = 44
	it.N = it.r.count(minReplySize)
	return it, it.r.err
}

// Next decodes the next entry into rep, reusing rep.Path's capacity. After N
// successful calls the iterator is exhausted; a final Next returns the
// trailing-bytes check like DecodeBatchReply's done().
func (it *BatchReplyIter) Next(rep *Reply) error {
	decodeReplyBody(&it.r, rep)
	return it.r.err
}

// Err reports the iterator's terminal state: nil only if every declared
// entry decoded and the payload was fully consumed.
func (it *BatchReplyIter) Err() error {
	return it.r.done()
}

// DecodeHealthzReply decodes a MsgHealthzReply payload.
func DecodeHealthzReply(p []byte, h *HealthzReply) error {
	r := preader{p: p}
	h.N = int32(r.u32())
	h.Snapshot = int64(r.u64())
	h.Gen = int64(r.u64())
	h.Status = r.str()
	h.SLO = r.str()
	return r.done()
}

// DecodeError decodes a MsgError payload.
func DecodeError(p []byte, e *ErrorFrame) error {
	r := preader{p: p}
	e.Code = Code(r.u8())
	r.skip(3)
	e.RetryAfterMS = r.u32()
	e.Detail = r.str()
	return r.done()
}

// --- stream reading ---

// Reader decodes frames off a byte stream, reusing one internal buffer, so
// steady-state frame reads allocate nothing. The payload slice returned by
// Next is valid only until the following Next call.
type Reader struct {
	r   io.Reader
	max uint32
	hdr [HeaderSize]byte
	buf []byte
}

// NewReader wraps r. maxFrame bounds the payload size accepted (and thus
// the buffer allocated); 0 means DefaultMaxFrame.
func NewReader(r io.Reader, maxFrame uint32) *Reader {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{r: r, max: maxFrame}
}

// Next reads one frame: header, verified payload, checksum. io.EOF is
// returned only on a clean boundary (no bytes of the next frame read);
// mid-frame truncation is ErrTruncated. A payload length over the limit
// returns ErrTooLarge before any allocation.
func (fr *Reader) Next() (Header, []byte, error) {
	var h Header
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return h, nil, io.EOF
		}
		return h, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if fr.hdr[0] != magic0 || fr.hdr[1] != magic1 {
		return h, nil, ErrMagic
	}
	h.Type = fr.hdr[2]
	h.Flags = fr.hdr[3]
	h.Len = get32(fr.hdr[4:8])
	h.Corr = get64(fr.hdr[8:16])
	if h.Len > fr.max {
		return h, nil, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, h.Len, fr.max)
	}
	need := int(h.Len) + TrailerSize
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	fr.buf = fr.buf[:need]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return h, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	payload := fr.buf[:h.Len]
	sum := fnvBytes(fnvBytes(fnvOffset, fr.hdr[:]), payload)
	if sum != get64(fr.buf[h.Len:]) {
		return h, nil, ErrChecksum
	}
	return h, payload, nil
}
