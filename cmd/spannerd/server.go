package main

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/clusterserve"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

// serverOpts carries the optional observability plumbing: the request
// tracer (shared with the engine), the SLO monitor (shared with the engine,
// which does the recording) and the structured logger. cluster, when
// non-nil, makes this daemon a cluster replica: the /cluster control plane
// is installed, replies are stamped with cluster generations, and direct
// /swap + /update are refused (generation changes must go through the
// router's two-phase commit, or replicas would silently diverge).
type serverOpts struct {
	tracer  *obs.ReqTracer
	slo     *obs.SLOMonitor
	logger  *slog.Logger
	cluster *clusterserve.Replica
}

// server wires the engine into HTTP handlers. All responses are JSON
// (except /metricz?format=prom). /query and /batch are a codec over the
// engine's serve.Transport, which holds every request rule.
type server struct {
	eng *serve.Engine
	tp  *serve.Transport
	ob  *obs.Observer
	serverOpts
}

func newServer(eng *serve.Engine, ob *obs.Observer, opts serverOpts) *server {
	if opts.logger == nil {
		opts.logger = slog.New(discardHandler{})
	}
	return &server{eng: eng, tp: eng.Transport("json", ob), ob: ob, serverOpts: opts}
}

// discardHandler is a no-op slog handler so s.logger is never nil.
type discardHandler struct{}

func (discardHandler) Enabled(_ context.Context, _ slog.Level) bool  { return false }
func (discardHandler) Handle(_ context.Context, _ slog.Record) error { return nil }
func (d discardHandler) WithAttrs(_ []slog.Attr) slog.Handler        { return d }
func (d discardHandler) WithGroup(_ string) slog.Handler             { return d }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/swap", s.handleSwap)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metricz", s.handleMetricz)
	mux.HandleFunc("/slo", s.handleSLO)
	if s.cluster != nil {
		s.cluster.Register(mux)
	}
	return mux
}

// reply encodes an engine reply and, on a cluster replica, stamps the
// cluster generation of the snapshot that answered. The replica records
// the snapshot→generation mapping under the same lock that publishes a
// commit, so a query that finished on the old snapshot during a cut-over
// is stamped with the old generation — never mislabeled with the new one.
func (s *server) reply(r serve.Reply) client.Reply {
	w := client.Reply{
		Type:     r.Type.String(),
		U:        r.U,
		V:        r.V,
		Dist:     r.Dist,
		Path:     r.Path,
		Cached:   r.Cached,
		Degraded: r.Degraded,
		Composed: r.Composed,
		Snapshot: r.SnapshotID,
	}
	if r.HasBound() {
		b := r.Bound
		w.Bound = &b
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	if s.cluster != nil {
		w.Gen = s.cluster.GenOf(r.SnapshotID)
	}
	return w
}

// request decodes a client.Query. Unknown type or priority names decode
// out of range, and the engine refuses them like any invalid request.
func request(q client.Query) serve.Request {
	typ, _ := serve.ParseQueryType(q.Type)
	prio, _ := serve.ParsePriority(q.Priority)
	req := serve.Request{Type: typ, U: q.U, V: q.V, Priority: prio, AllowDegraded: q.AllowDegraded}
	if q.DeadlineMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(q.DeadlineMS) * time.Millisecond)
	}
	return req
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"err": msg})
}

// writeCoded writes v with the HTTP status and Retry-After hint the serve
// error table gives code c.
func writeCoded(w http.ResponseWriter, c serve.Code, v any) {
	if d := c.RetryAfter(); d > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(d/time.Second)))
	}
	writeJSON(w, c.HTTPStatus(), v)
}

// handleQuery answers one query. GET takes ?type=dist&u=3&v=77
// (&deadlineMs=50); POST takes the same fields as JSON.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q, status, err := client.ReadQuery(r)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	req := request(q)
	// Request-scoped trace with a propagated (or generated) request id. The
	// engine stamps phases and the outcome; the handler owns start/finish,
	// so the id flows from the HTTP layer through the shard worker.
	var rt *obs.ReqTrace
	if s.tracer != nil {
		rt = s.tracer.Start(req.Type.String(), req.U, req.V, r.Header.Get("X-Request-Id"))
		w.Header().Set("X-Request-Id", rt.ID)
		req.Trace = rt
	}
	rep := s.tp.Query(req)
	s.tracer.Finish(rt)
	writeCoded(w, serve.CodeOf(rep.Err), s.reply(rep))
	s.tp.Sent(start)
}

// handleBatch answers a JSON array of queries in one round trip; replies
// come back in input order. Per-query failures are per-reply err fields;
// the HTTP status reflects parse errors and a refused batch only.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var qs []client.Query
	if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	reqs := make([]serve.Request, len(qs))
	for i, q := range qs {
		reqs[i] = request(q)
	}
	reps, err := s.tp.QueryBatch(reqs)
	if err != nil {
		writeCoded(w, serve.CodeOf(err), map[string]string{"err": err.Error()})
		s.tp.Sent(start)
		return
	}
	out := make([]client.Reply, len(reps))
	for i, rep := range reps {
		out[i] = s.reply(rep)
	}
	writeJSON(w, http.StatusOK, out)
	s.tp.Sent(start)
}

// handleSwap loads a new artifact from disk and hot-swaps it under live
// traffic. POST {"artifact": "path"}.
func (s *server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cluster != nil {
		// A direct swap on one replica would fork it from the cluster
		// generation history — exactly the divergence the two-phase commit
		// exists to prevent.
		writeError(w, http.StatusConflict, "cluster-managed replica: swap through the router")
		return
	}
	var body struct {
		Artifact string `json:"artifact"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Artifact == "" {
		writeError(w, http.StatusBadRequest, `want {"artifact":"path"}`)
		return
	}
	art, err := artifact.Load(body.Artifact)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "loading artifact: "+err.Error())
		return
	}
	gen, err := s.eng.Swap(art)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.logger.Info("artifact swapped", "snapshot", gen, "algo", art.Algo,
		"n", art.Graph.N(), "spanner", art.Spanner.Len())
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": gen,
		"algo":     art.Algo,
		"n":        art.Graph.N(),
		"spanner":  art.Spanner.Len(),
	})
}

// handleUpdate loads a delta from disk and applies it to the live snapshot
// — the same zero-dropped-query hot swap as /swap, but patch-sized on the
// wire. POST {"delta": "path"}. A delta bound to a generation that is no
// longer live answers 409 so a retrying updater knows to re-diff.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cluster != nil {
		writeError(w, http.StatusConflict, "cluster-managed replica: update through the router")
		return
	}
	var body struct {
		Delta string `json:"delta"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Delta == "" {
		writeError(w, http.StatusBadRequest, `want {"delta":"path"}`)
		return
	}
	d, err := artifact.LoadDelta(body.Delta)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "loading delta: "+err.Error())
		return
	}
	gen, err := s.eng.ApplyDelta(d)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, artifact.ErrBaseMismatch) {
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	snap := s.eng.Snapshot()
	s.logger.Info("delta applied", "snapshot", gen, "segments", len(d.Segments),
		"updates", d.Updates(), "spanner", snap.Art.Spanner.Len())
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": gen,
		"segments": len(d.Segments),
		"updates":  d.Updates(),
		"m":        snap.Art.Graph.M(),
		"spanner":  snap.Art.Spanner.Len(),
	})
}

// handleHealthz is pure liveness: 200 whenever the process can answer at
// all. SLO degradation, brownout and swap state belong to /readyz — a
// supervisor restarting on liveness must not kill a replica that is merely
// shedding load (that restart would turn a brownout into an outage).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"slo":      s.slo.Report().Status,
		"brownout": s.eng.Brownout(),
		"snapshot": snap.ID,
		"algo":     snap.Art.Algo,
		"n":        snap.N(),
	})
}

// handleReadyz is readiness: whether this replica should receive routed
// traffic right now. Not-ready (503) while a cluster swap prepare is
// staged (the replica may cut over or roll back at any instant) and while
// the SLO monitor pages (load balancers shed before users notice). The
// startup recovery scan is covered too: until the scan finishes the
// listener answers through the starting handler, whose /readyz is 503
// "recovering".
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sloStatus := s.slo.Report().Status
	ready, reason := true, ""
	if s.cluster != nil {
		ready, reason = s.cluster.Ready()
	}
	if ready && sloStatus == "page" {
		ready, reason = false, "slo-page"
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    ready,
		"reason":   reason,
		"slo":      sloStatus,
		"snapshot": s.eng.SnapshotID(),
		"gen":      genOf(s.cluster),
	})
}

// genOf is the nil-safe committed-generation read for status bodies.
func genOf(c *clusterserve.Replica) int64 {
	if c == nil {
		return 0
	}
	return c.Gen()
}

// handleSLO serves the full multi-window burn-rate report.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Report())
}

// metricJSON is one /metricz JSON entry. Histogram series carry the full
// mergeable snapshot (hist) so pollers like spannertop can diff scrapes and
// compute interval quantiles, plus convenience percentiles.
type metricJSON struct {
	Kind   string            `json:"kind"`
	Series string            `json:"series"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count,omitempty"`
	Min    float64           `json:"min,omitempty"`
	Max    float64           `json:"max,omitempty"`
	P50    int64             `json:"p50,omitempty"`
	P95    int64             `json:"p95,omitempty"`
	P99    int64             `json:"p99,omitempty"`
	Hist   *obs.HistSnapshot `json:"hist,omitempty"`
}

// scrape refreshes point-in-time gauges (shard queue depths) and snapshots
// the registry.
func (s *server) scrape() []obs.MetricValue {
	reg := s.ob.Registry()
	for i, d := range s.eng.QueueDepths() {
		reg.Gauge("serve.queue_depth", obs.Label{Key: "shard", Value: strconv.Itoa(i)}).Set(int64(d))
	}
	return reg.Snapshot()
}

// handleMetricz dumps the observer registry: every serve.* counter, gauge
// and latency histogram. Default is JSON (with full histogram snapshots);
// ?format=prom answers the Prometheus text exposition format.
func (s *server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	snap := s.scrape()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, snap); err != nil {
			s.logger.Error("metricz exposition failed", "err", err)
		}
		return
	}
	out := make([]metricJSON, len(snap))
	for i, m := range snap {
		out[i] = metricJSON{Kind: m.Kind, Series: m.Key(), Value: m.Value, Count: m.Count, Min: m.Min, Max: m.Max}
		if m.Hist != nil && m.Count > 0 {
			out[i].P50 = m.Hist.Quantile(0.50)
			out[i].P95 = m.Hist.Quantile(0.95)
			out[i].P99 = m.Hist.Quantile(0.99)
			out[i].Hist = m.Hist
		}
	}
	writeJSON(w, http.StatusOK, out)
}
