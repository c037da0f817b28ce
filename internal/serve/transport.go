package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"spanner/internal/obs"
)

// Code classifies a reply's outcome the same way for every transport. The
// binary wire protocol carries it as its error-code byte, so the numbering
// is part of that protocol and must not change.
type Code uint8

const (
	CodeOK Code = iota
	CodeNoRoute
	CodeBadVertex
	CodeBadQuery
	CodeOverloaded
	CodeDeadline
	CodeClosed
	CodeBrownout
	CodePartitioned
	CodeRejected // batch over the current limit
	CodeVersion  // transport handshake refused
	CodeBadFrame // undecodable frame; the connection is dropped
	CodeInternal
	numCodes
)

// RetryAfter is the pacing hint sent with every rejection that asks the
// client to come back later. Brownouts lift on the SLO monitor's poll
// cadence (~seconds), so "come back in 1s" is honest pacing, and
// well-behaved clients use it instead of guessing.
const RetryAfter = time.Second

// codeTable is the one error table: for each code, the typed engine error
// it classifies (nil for codes only a transport produces), its name, the
// HTTP status that carries it and the Retry-After hint sent with it. The
// client derives its typed error and retry/breaker class from the status,
// so a wire code and the HTTP answer for the same error behave alike.
var codeTable = [numCodes]struct {
	err        error
	name       string
	status     int
	retryAfter time.Duration
}{
	CodeOK: {nil, "ok", http.StatusOK, 0},
	// A valid answer about the graph, not a server failure.
	CodeNoRoute:    {ErrNoRoute, "no-route", http.StatusOK, 0},
	CodeBadVertex:  {ErrBadVertex, "bad-vertex", http.StatusBadRequest, 0},
	CodeBadQuery:   {ErrBadQuery, "bad-query", http.StatusBadRequest, 0},
	CodeOverloaded: {ErrOverloaded, "overloaded", http.StatusServiceUnavailable, 0},
	CodeDeadline:   {ErrDeadline, "deadline", http.StatusGatewayTimeout, 0},
	CodeClosed:     {ErrClosed, "closed", http.StatusServiceUnavailable, 0},
	// A deliberate shed, not an outage: 429 tells clients to back off
	// without tripping their circuit breakers.
	CodeBrownout: {ErrBrownout, "brownout", http.StatusTooManyRequests, RetryAfter},
	// A partition member's correct refusal: asking again cannot help, and
	// the member is healthy.
	CodePartitioned: {ErrPartitioned, "partitioned", http.StatusBadRequest, 0},
	CodeRejected:    {ErrBatchLimit, "rejected", http.StatusTooManyRequests, RetryAfter},
	CodeVersion:     {nil, "version", http.StatusHTTPVersionNotSupported, 0},
	// Framing lost on the connection (corruption, not the request's fault):
	// transient, like any server-side failure.
	CodeBadFrame: {nil, "bad-frame", http.StatusInternalServerError, 0},
	CodeInternal: {nil, "internal", http.StatusInternalServerError, 0},
}

// CodeOf classifies an engine error (nil is CodeOK; an untyped error is
// CodeInternal).
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	for c, row := range codeTable {
		if row.err != nil && errors.Is(err, row.err) {
			return Code(c)
		}
	}
	return CodeInternal
}

func (c Code) String() string {
	if c < numCodes {
		return codeTable[c].name
	}
	return "code-" + strconv.Itoa(int(c))
}

// HTTPStatus is the HTTP status that carries c (500 for unknown codes).
func (c Code) HTTPStatus() int {
	if c < numCodes {
		return codeTable[c].status
	}
	return http.StatusInternalServerError
}

// RetryAfter is the hint sent with c, or 0 when c carries none.
func (c Code) RetryAfter() time.Duration {
	if c < numCodes {
		return codeTable[c].retryAfter
	}
	return 0
}

// Transport is one transport's entry into the engine. Its codec decodes a
// request, answers it through Query or QueryBatch, encodes and writes the
// reply, then calls Sent. Every request rule lives behind these calls, so
// a query means the same on every transport. Transport stamps its name
// into each request (for traces and the slow-query log) and keeps the
// transport.requests, transport.errors and transport.latency_us series
// labelled with it.
type Transport struct {
	eng      *Engine
	name     string
	requests *obs.Counter
	errs     *obs.Counter
	latency  *obs.Histogram
}

// Transport returns the entry for the transport called name, recording
// its series into ob (nil disables them).
func (e *Engine) Transport(name string, ob *obs.Observer) *Transport {
	reg := ob.Registry()
	lbl := obs.Label{Key: "transport", Value: name}
	return &Transport{
		eng:      e,
		name:     name,
		requests: reg.Counter("transport.requests", lbl),
		errs:     reg.Counter("transport.errors", lbl),
		latency:  reg.Histogram("transport.latency_us", lbl),
	}
}

// Query answers one request and counts it.
func (t *Transport) Query(req Request) Reply {
	req.Transport = t.name
	r := t.eng.Query(req)
	t.count(r.Err)
	return r
}

// QueryBatch answers a batch as one request and counts it; a refused batch
// counts as an error.
func (t *Transport) QueryBatch(reqs []Request) ([]Reply, error) {
	for i := range reqs {
		reqs[i].Transport = t.name
	}
	rs, err := t.eng.QueryBatch(reqs)
	t.count(err)
	return rs, err
}

// count runs before the reply is written, so a client that has its answer
// also sees it counted.
func (t *Transport) count(err error) {
	t.requests.Inc()
	if c := CodeOf(err); c != CodeOK && c != CodeNoRoute {
		t.errs.Inc()
	}
}

// Sent observes one request's latency once its reply is written; start is
// when the transport began handling it.
func (t *Transport) Sent(start time.Time) {
	if t.latency != nil {
		t.latency.Observe(time.Since(start).Microseconds())
	}
}
