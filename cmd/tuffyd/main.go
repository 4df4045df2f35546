// Command tuffyd is the inference daemon: it grounds an MLN program, then
// serves MAP and marginal queries over HTTP through tuffy.Serve's
// admission-controlled scheduler — bounded priority queue, per-query
// budget caps, epoch-keyed result cache, metrics — and accepts live
// evidence updates that re-ground incrementally and publish a new epoch.
//
//	tuffyd -i prog.mln -e evidence.db -addr :7090
//
// Distributed mode splits one query's independent components across
// worker processes. Start workers with -worker (they speak the binary
// wire protocol, not HTTP) and point the coordinator at them:
//
//	tuffyd -i prog.mln -e evidence.db -worker :7191
//	tuffyd -i prog.mln -e evidence.db -worker :7192
//	tuffyd -i prog.mln -e evidence.db -addr :7090 -workers localhost:7191,localhost:7192
//
// Workers must be grounded from the same program and evidence — the
// handshake enforces it by fingerprint. Answers are bit-identical to a
// single-process run at every worker count; a dead worker degrades
// capacity (its shards run locally), never an answer, and /healthz stays
// 200 as long as anything — worker or local engine — can serve.
//
// Endpoints:
//
//	POST /infer     one query; JSON body, JSON answer
//	POST /evidence  apply an evidence delta; publishes the next epoch
//	GET  /metrics   scheduler/cache/epoch counters as JSON
//	GET  /healthz   liveness (200 once serving; "regrounding" true while
//	                an evidence update is re-grounding — queries still run)
//
// Example query and update:
//
//	curl -s localhost:7090/infer -d '{"kind":"map","seed":1,"maxFlips":20000,"priority":1}'
//	curl -s localhost:7090/evidence -d '{"ops":[{"pred":"friend","args":["Anna","Bob"]},{"pred":"smokes","args":["Carl"],"truth":"retract"}]}'
//
// Admission rejections map to HTTP statuses: 429 queue full, 400 budget
// exceeded, 504 expired in queue, 503 shutting down. A query canceled
// mid-run (its deadline, or daemon shutdown) still answers 200 with
// "canceled": true and the best result found. A rejected evidence delta
// (unknown predicate or constant, wrong arity) answers 400 and changes
// nothing; a failed one leaves the previous epoch serving and is safely
// retried. A 429 carries a Retry-After header estimating when a slot
// frees up. SIGINT or SIGTERM stops admission, drains in-flight queries,
// checkpoints durable state (with -data) and exits.
//
// With -data DIR, each replica keeps a write-ahead log and grounded-state
// snapshot under DIR/replicaN and the result cache is persisted in DIR;
// after a crash or restart the daemon warm-starts: it restores the
// grounded network and replays logged evidence deltas instead of
// re-grounding, then serves bit-identical answers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tuffy"
	"tuffy/internal/mln"
	"tuffy/internal/remote"
	"tuffy/internal/search"
)

func main() {
	var (
		progPath   = flag.String("i", "", "MLN program file (required)")
		evPath     = flag.String("e", "", "evidence file (required)")
		addr       = flag.String("addr", ":7090", "HTTP listen address")
		threads    = flag.Int("threads", 1, "grounding workers")
		budget     = flag.Int64("memory", 0, "engine memory budget in bytes for MRF partitioning")
		replicas   = flag.Int("replicas", 1, "engine replicas to ground and load-balance across")
		inflight   = flag.Int("inflight", 4, "max concurrently executing queries")
		queue      = flag.Int("queue", 64, "admission queue bound (waiting queries)")
		lanes      = flag.Int("lanes", 3, "priority lanes (0 = most urgent)")
		maxFlips   = flag.Int64("maxflips", 0, "per-query flip cap (0 = none)")
		maxSamples = flag.Int("maxsamples", 0, "per-query MC-SAT sample cap (0 = none)")
		maxBytes   = flag.Int64("maxbytes", 0, "per-query memory estimate cap in bytes (0 = none)")
		queryTime  = flag.Duration("querytimeout", 0, "per-query wall-clock deadline incl. queue wait (0 = none)")
		cacheSize  = flag.Int("cache", 0, "result cache entries (0 = default 4096, negative = off)")
		dataDir    = flag.String("data", "", "durable data directory: WAL + snapshots per replica, persisted result cache; warm-starts on restart (empty = in-memory only)")
		workerAddr = flag.String("worker", "", "run as a distributed worker: serve the wire protocol on this TCP address instead of HTTP")
		workers    = flag.String("workers", "", "comma-separated worker addresses to shard decomposable queries across")
	)
	flag.Parse()
	if *progPath == "" || *evPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *workerAddr != "" && *workers != "" {
		fatalIf(errors.New("-worker and -workers are mutually exclusive: a process is either a worker or a coordinator"))
	}
	if *workerAddr != "" {
		// A worker hosts exactly one engine: shards of one query are its
		// unit of work, so there is nothing to load-balance locally.
		*replicas = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prog, err := loadProgram(*progPath)
	fatalIf(err)
	ev, err := loadEvidence(prog, *evPath)
	fatalIf(err)

	cfg := tuffy.EngineConfig{GroundWorkers: *threads, MemoryBudgetBytes: *budget}
	engines := make([]*tuffy.Engine, *replicas)
	for i := range engines {
		if *dataDir != "" {
			// Each replica owns its own WAL and snapshot; they replay the
			// same deltas, so all recover to the same epoch.
			cfg.DataDir = filepath.Join(*dataDir, fmt.Sprintf("replica%d", i))
		}
		eng, err := tuffy.Open(prog, ev, cfg)
		fatalIf(err)
		engines[i] = eng
		if ds := eng.DurabilityStats(); ds.WarmStart {
			// Ground below is a no-op on a warm-started engine: recovery
			// already published the pre-crash epoch.
			log.Printf("replica %d warm-started in %v (epoch %d, %d deltas replayed)",
				i, ds.RecoveryTime.Round(time.Millisecond), eng.Generation(), ds.ReplayedDeltas)
			continue
		}
		start := time.Now()
		fatalIf(engines[i].Ground(ctx))
		log.Printf("replica %d grounded in %v", i, time.Since(start).Round(time.Millisecond))
	}

	if *workerAddr != "" {
		// Worker mode: serve the framed wire protocol until SIGINT/SIGTERM.
		// The accept loop closes the listener and live sessions on the
		// signal; in-flight shards return promptly via context cancellation.
		ln, err := net.Listen("tcp", *workerAddr)
		fatalIf(err)
		log.Printf("tuffyd worker serving on %s (epoch %d)", ln.Addr(), engines[0].Generation())
		fatalIf(remote.NewWorker(engines[0]).Serve(ctx, ln))
		if err := engines[0].Close(); err != nil {
			log.Printf("closing engine: %v", err)
		}
		log.Print("worker stopped; bye")
		return
	}

	var workerList []string
	if *workers != "" {
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				workerList = append(workerList, a)
			}
		}
	}

	srv, err := tuffy.Serve(tuffy.ServerConfig{
		MaxInFlight:        *inflight,
		MaxQueue:           *queue,
		Priorities:         *lanes,
		MaxFlipsPerQuery:   *maxFlips,
		MaxSamplesPerQuery: *maxSamples,
		MaxBytesPerQuery:   *maxBytes,
		MaxQueryTime:       *queryTime,
		CacheEntries:       *cacheSize,
		DataDir:            *dataDir,
		Workers:            workerList,
	}, engines...)
	fatalIf(err)

	h := &handler{srv: srv, fmtEngine: engines[0]}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", h.infer)
	mux.HandleFunc("POST /evidence", h.evidence)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		ds := engines[0].DurabilityStats()
		ws, healthy := workerRows(srv)
		// Local engines can always serve (worker outages only shrink
		// capacity), so unhealthy workers never flip /healthz to 503; it
		// would take having no backend at all, which Serve rejects upfront.
		ok := len(engines) > 0 || healthy > 0
		status := http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"ok":             ok,
			"epoch":          srv.Metrics().Epoch,
			"regrounding":    srv.Updating(),
			"durable":        ds.Enabled,
			"warmStart":      ds.WarmStart,
			"recoveryMillis": ds.RecoveryTime.Milliseconds(),
			"checkpoints":    ds.Checkpoints,
			"workersHealthy": healthy,
			"workersTotal":   len(ws),
			"workers":        ws,
		})
	})

	// Request contexts derive from the signal context: SIGINT cancels every
	// in-flight query, which returns promptly with its best-so-far answer
	// (the search loops' usual cancellation contract), so the drain below
	// is bounded and clients still get their 200 + "canceled": true.
	hs := &http.Server{
		Addr:        *addr,
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Connection-level protection in front of the admission layer:
		// slow or idle clients must not hold descriptors while the
		// scheduler sheds load. No WriteTimeout — query duration is
		// governed by -querytimeout through the context, not by the
		// connection.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Print("shutting down: draining queries")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx)
		if err := srv.Close(); err != nil {
			log.Printf("persisting result cache: %v", err)
		}
		for i, eng := range engines {
			if err := eng.Close(); err != nil {
				log.Printf("closing replica %d: %v", i, err)
			}
		}
	}()
	eff := srv.Config()
	log.Printf("tuffyd serving on %s (inflight=%d queue=%d lanes=%d)", *addr, eff.MaxInFlight, eff.MaxQueue, eff.Priorities)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatalIf(err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the
	// drain to finish before exiting the process.
	<-drained
	log.Print("drained; bye")
}

// inferRequest is the JSON query body.
type inferRequest struct {
	// Kind is "map" (default) or "marginal".
	Kind string `json:"kind"`
	// Mode is "auto" (default), "memory" (monolithic in-memory) or "indb".
	Mode        string `json:"mode"`
	Seed        int64  `json:"seed"`
	MaxFlips    int64  `json:"maxFlips"`
	MaxTries    int    `json:"maxTries"`
	Rounds      int    `json:"rounds"`
	Samples     int    `json:"samples"`
	Parallelism int    `json:"parallelism"`
	Priority    int    `json:"priority"`
}

type mapResponse struct {
	// Cost is null (and Infeasible true) when the best world violates a
	// hard constraint — MAPResult reports that as +Inf, which JSON cannot
	// encode.
	Cost       *float64 `json:"cost"`
	Infeasible bool     `json:"infeasible,omitempty"`
	Flips      int64    `json:"flips"`
	Partitions int      `json:"partitions"`
	CutClauses int      `json:"cutClauses"`
	TrueAtoms  []string `json:"trueAtoms"`
	Canceled   bool     `json:"canceled"`
}

type probResponse struct {
	Atom string  `json:"atom"`
	P    float64 `json:"p"`
}

type marginalResponse struct {
	Probs    []probResponse `json:"probs"`
	Canceled bool           `json:"canceled"`
}

type handler struct {
	srv *tuffy.Server
	// fmtEngine renders atoms with the program's symbol table (all
	// replicas share one program).
	fmtEngine *tuffy.Engine
}

func (h *handler) infer(w http.ResponseWriter, r *http.Request) {
	var req inferRequest
	// A query body is a handful of scalars; 1 MB bounds decoder memory
	// before any admission logic runs.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	opts := tuffy.InferOptions{
		Seed:              req.Seed,
		MaxFlips:          req.MaxFlips,
		MaxTries:          req.MaxTries,
		GaussSeidelRounds: req.Rounds,
		Samples:           req.Samples,
		Parallelism:       req.Parallelism,
	}
	switch strings.ToLower(req.Mode) {
	case "", "auto":
		opts.Mode = tuffy.Auto
	case "memory", "monolithic":
		opts.Mode = tuffy.InMemoryMonolithic
	case "indb", "database":
		opts.Mode = tuffy.InDatabase
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q", req.Mode))
		return
	}
	answer, ok := inferKinds[strings.ToLower(req.Kind)]
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown kind %q", req.Kind))
		return
	}
	out, err := answer(h, r.Context(), tuffy.Request{Options: opts, Priority: req.Priority})
	if err != nil {
		h.reject(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// inferKinds maps the JSON "kind" to the query it names: the server entry
// point and the reply built from its typed result.
var inferKinds = map[string]func(*handler, context.Context, tuffy.Request) (any, error){
	"":         answerWith((*tuffy.Server).InferMAP, (*handler).mapReply),
	"map":      answerWith((*tuffy.Server).InferMAP, (*handler).mapReply),
	"marginal": answerWith((*tuffy.Server).InferMarginal, (*handler).marginalReply),
}

// answerWith is the one call into the server: run the query, pass admission
// rejections up, and turn the result — complete, or best-so-far when the
// query was canceled mid-run — into its reply.
func answerWith[R any](run func(*tuffy.Server, context.Context, tuffy.Request) (*R, error), reply func(*handler, *R, bool) any) func(*handler, context.Context, tuffy.Request) (any, error) {
	return func(h *handler, ctx context.Context, q tuffy.Request) (any, error) {
		res, err := run(h.srv, ctx, q)
		if err != nil && !errors.Is(err, tuffy.ErrCanceled) {
			return nil, err
		}
		return reply(h, res, err != nil), nil
	}
}

func (h *handler) mapReply(res *tuffy.MAPResult, canceled bool) any {
	out := mapResponse{Canceled: canceled}
	if res == nil {
		return out
	}
	if math.IsInf(res.Cost, 0) {
		out.Infeasible = true
	} else {
		out.Cost = &res.Cost
	}
	out.Flips = res.Flips
	out.Partitions, out.CutClauses = res.Partitions, res.CutClauses
	out.TrueAtoms = make([]string, 0, len(res.TrueAtoms))
	for _, a := range res.TrueAtoms {
		out.TrueAtoms = append(out.TrueAtoms, h.fmtEngine.FormatAtom(a))
	}
	return out
}

func (h *handler) marginalReply(res *tuffy.MarginalResult, canceled bool) any {
	out := marginalResponse{Canceled: canceled}
	if res != nil {
		out.Probs = make([]probResponse, 0, len(res.Probs))
		for _, ap := range res.Probs {
			out.Probs = append(out.Probs, probResponse{Atom: h.fmtEngine.FormatAtom(ap.Atom), P: ap.P})
		}
	}
	return out
}

// evidenceOp is one JSON evidence mutation: constants by name, truth
// "true" (default), "false", or "retract".
type evidenceOp struct {
	Pred  string   `json:"pred"`
	Args  []string `json:"args"`
	Truth string   `json:"truth"`
}

type evidenceRequest struct {
	Ops []evidenceOp `json:"ops"`
}

type evidenceResponse struct {
	Epoch             uint64 `json:"epoch"`
	Identical         bool   `json:"identical"`
	ClausesRerun      int    `json:"clausesRerun"`
	ClausesTotal      int    `json:"clausesTotal"`
	RawsAdded         int    `json:"rawsAdded"`
	RawsRemoved       int    `json:"rawsRemoved"`
	TouchedAtoms      int    `json:"touchedAtoms"`
	ClausesAdded      int    `json:"clausesAdded"`
	ClausesRemoved    int    `json:"clausesRemoved"`
	ClausesReweighted int    `json:"clausesReweighted"`
	ComponentsReused  int    `json:"componentsReused"`
	PartsReused       int    `json:"partsReused"`
	UpdateMillis      int64  `json:"updateMillis"`
}

// evidence applies one evidence delta to every replica and publishes the
// next epoch. Constants are resolved by name without interning: a name the
// program has never seen is a 400, not a new constant (new constants would
// change the grounding universe, which is a full re-ground, not an update).
func (h *handler) evidence(w http.ResponseWriter, r *http.Request) {
	var req evidenceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty delta: no ops"))
		return
	}
	prog := h.fmtEngine.Prog()
	var d mln.Delta
	for i, op := range req.Ops {
		pred, ok := prog.Predicate(op.Pred)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown predicate %q", i, op.Pred))
			return
		}
		if len(op.Args) != pred.Arity() {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: %s expects %d args, got %d", i, pred.Name, pred.Arity(), len(op.Args)))
			return
		}
		args := make([]int32, len(op.Args))
		for j, name := range op.Args {
			id, ok := prog.Syms.Lookup(name)
			if !ok {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown constant %q", i, name))
				return
			}
			args[j] = id
		}
		switch strings.ToLower(op.Truth) {
		case "", "true":
			d.Upsert(pred, args, mln.True)
		case "false":
			d.Upsert(pred, args, mln.False)
		case "retract", "remove", "unknown":
			d.Remove(pred, args)
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown truth %q (want true/false/retract)", i, op.Truth))
			return
		}
	}
	ur, err := h.srv.UpdateEvidence(r.Context(), d)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, mln.ErrConstantNotInDomain) {
			status = http.StatusBadRequest
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, evidenceResponse{
		Epoch:             ur.Epoch,
		Identical:         ur.Identical,
		ClausesRerun:      ur.ClausesRerun,
		ClausesTotal:      ur.ClausesTotal,
		RawsAdded:         ur.RawsAdded,
		RawsRemoved:       ur.RawsRemoved,
		TouchedAtoms:      ur.TouchedAtoms,
		ClausesAdded:      ur.ClausesAdded,
		ClausesRemoved:    ur.ClausesRemoved,
		ClausesReweighted: ur.ClausesReweighted,
		ComponentsReused:  ur.ComponentsReused,
		PartsReused:       ur.PartsReused,
		UpdateMillis:      ur.UpdateTime.Milliseconds(),
	})
}

func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	ws, healthy := workerRows(h.srv)
	writeJSON(w, http.StatusOK, struct {
		tuffy.ServerMetrics
		Memo           search.MemoStats      `json:"memo"`
		Durability     tuffy.DurabilityStats `json:"durability"`
		WorkersHealthy int                   `json:"workersHealthy"`
		WorkersTotal   int                   `json:"workersTotal"`
		Workers        []tuffy.WorkerStatus  `json:"workers,omitempty"`
	}{h.srv.Metrics(), h.fmtEngine.MemoStats(), h.fmtEngine.DurabilityStats(), healthy, len(ws), ws})
}

// workerRows snapshots the remote worker pool for /healthz and /metrics.
func workerRows(srv *tuffy.Server) ([]tuffy.WorkerStatus, int) {
	ws := srv.Workers()
	healthy := 0
	for _, w := range ws {
		if w.Healthy {
			healthy++
		}
	}
	return ws, healthy
}

// reject writes an admission error; a 429 (queue full) additionally
// carries a Retry-After estimate of when a slot should free up, derived
// from the live queue depth and observed per-query latency.
func (h *handler) reject(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", h.retryAfterSeconds()))
	}
	writeErr(w, status, err)
}

func (h *handler) retryAfterSeconds() int64 {
	m := h.srv.Metrics()
	// The slot count is the server's, not the -inflight flag's: Serve
	// replaces a non-positive value with its default.
	return retryAfterHint(m.AvgLatency(), m.Queued+m.InFlight, h.srv.Config().MaxInFlight)
}

// retryAfterHint estimates the wait for the whole queue ahead of a retry
// to drain: queued queries finish at roughly maxInFlight per average
// query latency. The average must be the mean of real execution runs
// only — cache hits and batch-absorbed queries are excluded from
// Metrics.AvgLatency precisely so this estimate doesn't collapse toward
// zero under a hit- or batch-heavy mix. Before any query completes the
// average defaults to one second and a slot count below one counts as one;
// the result is clamped to [1s, 60s] so clients always get a sane, bounded
// hint.
func retryAfterHint(avg time.Duration, waiting int64, maxInFlight int) int64 {
	if avg <= 0 {
		avg = time.Second
	}
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	est := avg * time.Duration(waiting+1) / time.Duration(maxInFlight)
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// statusFor maps admission outcomes to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, tuffy.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, tuffy.ErrBudgetExceeded):
		return http.StatusBadRequest
	case errors.Is(err, tuffy.ErrExpiredInQueue):
		return http.StatusGatewayTimeout
	case errors.Is(err, tuffy.ErrServerClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON marshals before touching the response, so an encoding failure
// becomes a 500 with a diagnostic instead of a silent 200 with no body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("{\"error\":%q}", "encode response: "+err.Error()))
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func loadProgram(path string) (*mln.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tuffy.LoadProgram(f)
}

func loadEvidence(prog *mln.Program, path string) (*mln.Evidence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tuffy.LoadEvidence(prog, f)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tuffyd:", err)
		os.Exit(1)
	}
}
