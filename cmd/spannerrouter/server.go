package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"spanner/client"
	"spanner/internal/clusterserve"
)

// routerServer wires the cluster into HTTP handlers. The query surface is
// wire-compatible with spannerd's — a spannerd client pointed at the
// router sees the same API, plus cluster generations in replies and
// cluster-level behavior behind it (failover, hedging, degraded quorum
// loss).
type routerServer struct {
	cl     *clusterserve.Cluster
	logger *slog.Logger
}

func newRouterServer(cl *clusterserve.Cluster, logger *slog.Logger) *routerServer {
	return &routerServer{cl: cl, logger: logger}
}

func (s *routerServer) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/swap", s.handleSwap)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/join", s.handleJoin)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"err": msg})
}

// statusFor maps routed-query errors onto the status codes a spannerd
// client already understands: quorum loss and exhausted replicas are 503
// (the cluster, not the request, is the problem), per-replica rejections
// pass through as 429, timeouts as 504.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, client.ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, client.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, client.ErrRejected):
		return http.StatusTooManyRequests
	case errors.Is(err, client.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, clusterserve.ErrNoQuorum), errors.Is(err, clusterserve.ErrNoReplicas):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

// handleQuery routes one query. Same GET/POST wire forms as spannerd; the
// answering replica and any failover/hedge activity come back in
// X-Served-By / X-Failovers headers so chaos suites and the loadgen can
// attribute answers without scraping /statusz.
func (s *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, status, err := client.ReadQuery(r)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	rep, tr, err := s.cl.QueryTraced(r.Context(), q)
	if tr.Replica != "" {
		w.Header().Set("X-Served-By", tr.Replica)
	}
	if tr.Failovers > 0 {
		w.Header().Set("X-Failovers", strconv.Itoa(tr.Failovers))
	}
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *routerServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var qs []client.Query
	if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	rs, err := s.cl.Batch(r.Context(), qs)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// handleSwap drives a cluster-wide two-phase artifact swap.
// POST {"artifact": "path"} — a path every replica can read.
func (s *routerServer) handleSwap(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, "artifact", s.cl.Swap)
}

// handleUpdate drives a cluster-wide two-phase delta apply.
// POST {"delta": "path"}.
func (s *routerServer) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, "delta", s.cl.Update)
}

func (s *routerServer) handleMutation(w http.ResponseWriter, r *http.Request, field string,
	run func(ctx context.Context, path string) (clusterserve.MutationResult, error)) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var body map[string]string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body[field] == "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(`want {%q:"path"}`, field))
		return
	}
	res, err := run(r.Context(), body[field])
	if err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, clusterserve.ErrNoQuorum):
			status = http.StatusServiceUnavailable
		case errors.Is(err, clusterserve.ErrConflictPrepare):
			// A delta bound to a base generation the cluster no longer
			// serves: same 409 contract as a single spannerd, so updaters
			// re-diff rather than retry.
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	s.logger.Info("cluster mutation committed", "kind", field,
		"gen", res.Gen, "committed", res.Committed, "ejected", len(res.Ejected))
	writeJSON(w, http.StatusOK, res)
}

// handleJoin registers a replica (spannerd -join posts here). Idempotent.
func (s *routerServer) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.URL == "" {
		writeError(w, http.StatusBadRequest, `want {"url":"http://replica:port"}`)
		return
	}
	s.cl.Add(body.URL)
	writeJSON(w, http.StatusOK, map[string]string{"status": "joined"})
}

// handleHealthz is router liveness.
func (s *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "gen": s.cl.Gen()})
}

// handleReadyz reports whether the cluster can serve exact answers:
// not-ready (503) under quorum loss — traffic still gets degraded distance
// answers, but load balancers should prefer a healthy cell if they have
// one.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.cl.Status()
	ready := st.ReadyCount >= st.Quorum
	status := http.StatusOK
	reason := ""
	if !ready {
		status = http.StatusServiceUnavailable
		reason = fmt.Sprintf("%d/%d replicas ready, quorum %d", st.ReadyCount, len(st.Members), st.Quorum)
	}
	writeJSON(w, status, map[string]any{"ready": ready, "reason": reason, "gen": st.Gen})
}

// handleStatusz dumps the cluster view: generation, members, routing
// counters.
func (s *routerServer) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cl.Status())
}

// partitionServer is routerServer's scatter-gather sibling for a
// partitioned deployment (-partition-map): same wire surface, served by a
// PartitionedCluster. Distance queries crossing partitions come back
// flagged Composed; /swap takes {"map": path} and drives the composed
// K-group two-phase commit.
type partitionServer struct {
	pc     *clusterserve.PartitionedCluster
	logger *slog.Logger
}

func newPartitionServer(pc *clusterserve.PartitionedCluster, logger *slog.Logger) *partitionServer {
	return &partitionServer{pc: pc, logger: logger}
}

func (s *partitionServer) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/swap", s.handleSwap)
	mux.HandleFunc("/join", s.handleJoin)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

func (s *partitionServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, status, err := client.ReadQuery(r)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	rep, tr, err := s.pc.QueryTraced(r.Context(), q)
	if tr.Replica != "" {
		w.Header().Set("X-Served-By", tr.Replica)
	}
	if tr.Failovers > 0 {
		w.Header().Set("X-Failovers", strconv.Itoa(tr.Failovers))
	}
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *partitionServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var qs []client.Query
	if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	rs, err := s.pc.Batch(r.Context(), qs)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// handleSwap drives the composed K-group two-phase map swap.
// POST {"map": "path"} — a partition map every replica can read, with part
// paths resolvable relative to it.
func (s *partitionServer) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var body map[string]string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body["map"] == "" {
		writeError(w, http.StatusBadRequest, `want {"map":"path"}`)
		return
	}
	res, err := s.pc.SwapMap(r.Context(), body["map"])
	if err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, clusterserve.ErrNoQuorum):
			status = http.StatusServiceUnavailable
		case errors.Is(err, clusterserve.ErrConflictPrepare):
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	s.logger.Info("composed cluster mutation committed",
		"gen", res.Gen, "split_id", res.SplitID)
	writeJSON(w, http.StatusOK, res)
}

func (s *partitionServer) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.URL == "" {
		writeError(w, http.StatusBadRequest, `want {"url":"http://replica:port"}`)
		return
	}
	s.pc.Add(body.URL)
	writeJSON(w, http.StatusOK, map[string]string{"status": "joined"})
}

func (s *partitionServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "gen": s.pc.Gen()})
}

// handleReadyz: a partitioned cluster is ready when every partition group
// meets its quorum — a single unquorate partition already forces composed
// (inexact) answers for its vertices.
func (s *partitionServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.pc.Status()
	ready := true
	reason := ""
	for _, g := range st.Groups {
		if g.Status.ReadyCount < g.Status.Quorum {
			ready = false
			reason = fmt.Sprintf("partition %d: %d/%d ready, quorum %d",
				g.Partition, g.Status.ReadyCount, len(g.Status.Members), g.Status.Quorum)
			break
		}
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "reason": reason, "gen": st.Gen})
}

func (s *partitionServer) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pc.Status())
}
