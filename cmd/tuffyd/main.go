// Command tuffyd is the inference daemon: it grounds an MLN program, then
// serves MAP and marginal queries over HTTP through tuffy.Serve's
// admission-controlled scheduler — bounded FIFO queue, per-query
// budget caps, epoch-keyed result cache, metrics — and accepts live
// evidence updates that re-ground incrementally and publish a new epoch.
//
//	tuffyd -i prog.mln -e evidence.db -addr :7090
//
// The daemon serves one engine; a query's independent components run in
// parallel inside it (the JSON "parallelism" field).
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
//	curl -s localhost:7090/infer -d '{"kind":"map","seed":1,"maxFlips":20000}'
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
// With -data DIR, the engine keeps a write-ahead log and grounded-state
// snapshot under DIR/replica0; after a crash or restart the daemon
// warm-starts: it restores the grounded network and replays logged
// evidence deltas instead of re-grounding, then serves bit-identical
// answers. The result cache is not persisted: it refills on the recovered
// epoch.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"tuffy/internal/search"
)

// engineDir is the engine's durable directory under -data. The name
// predates the single-engine daemon and stays, so existing data
// directories keep warm-starting.
const engineDir = "replica0"

func main() {
	var (
		progPath   = flag.String("i", "", "MLN program file (required)")
		evPath     = flag.String("e", "", "evidence file (required)")
		addr       = flag.String("addr", ":7090", "HTTP listen address")
		threads    = flag.Int("threads", 1, "grounding workers")
		budget     = flag.Int64("memory", 0, "engine memory budget in bytes for MRF partitioning")
		inflight   = flag.Int("inflight", 4, "max concurrently executing queries")
		queue      = flag.Int("queue", 64, "admission queue bound (waiting queries)")
		maxFlips   = flag.Int64("maxflips", 0, "per-query cap on MAP flips over all tries (0 = none)")
		maxSamples = flag.Int("maxsamples", 0, "per-query MC-SAT sample cap (0 = none)")
		maxBytes   = flag.Int64("maxbytes", 0, "per-query memory estimate cap in bytes (0 = none)")
		queryTime  = flag.Duration("querytimeout", 0, "per-query wall-clock deadline incl. queue wait (0 = none)")
		cacheSize  = flag.Int("cache", 0, "result cache entries (0 = default 4096, negative = off)")
		dataDir    = flag.String("data", "", "durable data directory: snapshot + WAL; warm-starts on restart (empty = in-memory only)")
	)
	flag.Parse()
	if *progPath == "" || *evPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prog, err := loadProgram(*progPath)
	fatalIf(err)
	ev, err := loadEvidence(prog, *evPath)
	fatalIf(err)

	cfg := tuffy.EngineConfig{GroundWorkers: *threads, MemoryBudgetBytes: *budget}
	if *dataDir != "" {
		cfg.DataDir = filepath.Join(*dataDir, engineDir)
	}
	eng, err := tuffy.Open(prog, ev, cfg)
	fatalIf(err)
	if ds := eng.DurabilityStats(); ds.WarmStart {
		// Recovery already published the pre-crash epoch; there is nothing
		// to ground.
		log.Printf("warm-started in %v (epoch %d, %d deltas replayed)",
			ds.RecoveryTime.Round(time.Millisecond), eng.Generation(), ds.ReplayedDeltas)
	} else {
		start := time.Now()
		fatalIf(eng.Ground(ctx))
		log.Printf("grounded in %v", time.Since(start).Round(time.Millisecond))
	}

	srv, err := tuffy.Serve(tuffy.ServerConfig{
		MaxInFlight:        *inflight,
		MaxQueue:           *queue,
		MaxFlipsPerQuery:   *maxFlips,
		MaxSamplesPerQuery: *maxSamples,
		MaxBytesPerQuery:   *maxBytes,
		MaxQueryTime:       *queryTime,
		CacheEntries:       *cacheSize,
	}, eng)
	fatalIf(err)

	h := &handler{srv: srv, eng: eng}

	// Request contexts derive from the signal context: SIGINT cancels every
	// in-flight query, which returns promptly with its best-so-far answer
	// (the search loops' usual cancellation contract), so the drain below
	// is bounded and clients still get their 200 + "canceled": true.
	hs := &http.Server{
		Addr:        *addr,
		Handler:     h.mux(),
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
		srv.Close()
		if err := eng.Close(); err != nil {
			log.Printf("closing engine: %v", err)
		}
	}()
	eff := srv.Config()
	log.Printf("tuffyd serving on %s (inflight=%d queue=%d)", *addr, eff.MaxInFlight, eff.MaxQueue)
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
	// eng is the served engine: it renders atoms with the program's symbol
	// table and reports memo and durability state.
	eng *tuffy.Engine
}

// mux routes the daemon's endpoints to h.
func (h *handler) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", h.infer)
	mux.HandleFunc("POST /evidence", h.evidence)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /healthz", h.healthz)
	return mux
}

func (h *handler) infer(w http.ResponseWriter, r *http.Request) {
	var req inferRequest
	// A query body is a handful of scalars; 1 MB bounds decoder memory
	// before any admission logic runs.
	if !decodeBody(w, r, 1<<20, &req) {
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
	out, err := answer(h, r.Context(), opts)
	if err != nil {
		h.reject(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// inferKinds maps the JSON "kind" to the query it names: the server entry
// point and the reply built from its typed result.
var inferKinds = map[string]func(*handler, context.Context, tuffy.InferOptions) (any, error){
	"":         answerWith((*tuffy.Server).InferMAP, (*handler).mapReply),
	"map":      answerWith((*tuffy.Server).InferMAP, (*handler).mapReply),
	"marginal": answerWith((*tuffy.Server).InferMarginal, (*handler).marginalReply),
}

// answerWith is the one call into the server: run the query, pass admission
// rejections up, and turn the result — complete, or best-so-far when the
// query was canceled mid-run — into its reply.
func answerWith[R any](run func(*tuffy.Server, context.Context, tuffy.InferOptions) (*R, error), reply func(*handler, *R, bool) any) func(*handler, context.Context, tuffy.InferOptions) (any, error) {
	return func(h *handler, ctx context.Context, opts tuffy.InferOptions) (any, error) {
		res, err := run(h.srv, ctx, opts)
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
		out.TrueAtoms = append(out.TrueAtoms, h.eng.FormatAtom(a))
	}
	return out
}

func (h *handler) marginalReply(res *tuffy.MarginalResult, canceled bool) any {
	out := marginalResponse{Canceled: canceled}
	if res != nil {
		out.Probs = make([]probResponse, 0, len(res.Probs))
		for _, ap := range res.Probs {
			out.Probs = append(out.Probs, probResponse{Atom: h.eng.FormatAtom(ap.Atom), P: ap.P})
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
	Epoch            uint64 `json:"epoch"`
	Identical        bool   `json:"identical"`
	ClausesRerun     int    `json:"clausesRerun"`
	ClausesTotal     int    `json:"clausesTotal"`
	RawsAdded        int    `json:"rawsAdded"`
	RawsRemoved      int    `json:"rawsRemoved"`
	TouchedAtoms     int    `json:"touchedAtoms"`
	ComponentsReused int    `json:"componentsReused"`
	PartsReused      int    `json:"partsReused"`
	UpdateMillis     int64  `json:"updateMillis"`
}

// evidence applies one evidence delta to the engine and publishes the
// next epoch. Constants are resolved by name without interning: a name the
// program has never seen is a 400, not a new constant (new constants would
// change the grounding universe, which is a full re-ground, not an update).
func (h *handler) evidence(w http.ResponseWriter, r *http.Request) {
	var req evidenceRequest
	if !decodeBody(w, r, 8<<20, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty delta: no ops"))
		return
	}
	prog := h.eng.Prog()
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
	// componentsReused carries the same count as partsReused — the
	// decomposition's parts are the components — and stays for the clients
	// that read it.
	writeJSON(w, http.StatusOK, evidenceResponse{
		Epoch:            ur.Epoch,
		Identical:        ur.Identical,
		ClausesRerun:     ur.ClausesRerun,
		ClausesTotal:     ur.ClausesTotal,
		RawsAdded:        ur.RawsAdded,
		RawsRemoved:      ur.RawsRemoved,
		TouchedAtoms:     ur.TouchedAtoms,
		ComponentsReused: ur.PartsReused,
		PartsReused:      ur.PartsReused,
		UpdateMillis:     ur.UpdateTime.Milliseconds(),
	})
}

func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		tuffy.ServerMetrics
		Memo       search.MemoStats      `json:"memo"`
		Durability tuffy.DurabilityStats `json:"durability"`
	}{h.srv.Metrics(), h.eng.MemoStats(), h.eng.DurabilityStats()})
}

// healthz answers 200 once serving; the engine it serves exists from
// start-up on, so the daemon is healthy whenever it answers at all.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	ds := h.eng.DurabilityStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"epoch":          h.srv.Metrics().Epoch,
		"regrounding":    h.srv.Updating(),
		"durable":        ds.Enabled,
		"warmStart":      ds.WarmStart,
		"recoveryMillis": ds.RecoveryTime.Milliseconds(),
		"checkpoints":    ds.Checkpoints,
	})
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
// only — cache hits are excluded from Metrics.AvgLatency precisely so this
// estimate doesn't collapse toward zero under a hit-heavy mix. Before any
// query completes the average defaults to one second and a slot count
// below one counts as one; the result is clamped to [1s, 60s] so clients
// always get a sane, bounded hint.
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

// decodeBody reads a body of at most limit bytes holding exactly one JSON
// value into v, answering 400 and returning false when it does not.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil && dec.Decode(&json.RawMessage{}) != io.EOF {
		err = errors.New("trailing data after the JSON value")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
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
