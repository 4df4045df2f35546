package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"tuffy"
	"tuffy/internal/datagen"
	"tuffy/internal/mln"
	"tuffy/internal/search"
)

// The rc-serve traffic mix. The loop is closed: each client sends its next
// request only after the previous reply, because each caller of the daemon
// waits for its answer. Each block of 40 operations holds exactly 28 MAP
// queries with a fresh seed (always a cache miss), 11 MAP queries from the
// hot set (a cache hit once warmed) and 1 marginal query, in an order drawn
// from the seed: a marginal costs fourteen misses, so drawing every op
// independently would let the seed decide the throughput. One marginal in
// 40 keeps the clients in marginals for about a quarter of the loop; at one
// in 20 it was nearly half, and the median MAP latency sat on the edge
// between its uncontended and its contended mode.
const (
	blockMiss    = 28
	blockHot     = 11
	blockSize    = 40
	hotSeeds     = 8
	updateEvery  = 50 // client 0 replaces every 50th op by an evidence delta
	deltaOps     = 20
	loopShare    = 0.7 // of the run's seconds; the rest is restart cycles
	verifyMisses = 24  // fresh-seed answers recomputed in process
	verifyMargs  = 3   // marginal answers recomputed in process
	opTimeout    = 30 * time.Second
)

type opKind int

const (
	opMiss opKind = iota
	opHot
	opMarginal
	opUpdate
	numOpKinds
)

var opNames = [numOpKinds]string{"map-miss", "map-hot", "marginal", "update"}

// evidenceOp is one mutation of tuffyd's POST /evidence body.
type evidenceOp struct {
	Pred  string   `json:"pred"`
	Args  []string `json:"args"`
	Truth string   `json:"truth,omitempty"`
}

// deltaPair renders a datagen delta and its inverse by constant name.
// RandomDelta only removes present tuples and only inserts absent ones, so
// the inverse is the reversed sequence with the two kinds swapped.
func deltaPair(ds *datagen.Dataset, pred string, n int, seed int64) (fwd, inv []evidenceOp) {
	d := datagen.RandomDelta(ds, pred, n, seed)
	for _, op := range d.Ops {
		args := make([]string, len(op.Args))
		for i, a := range op.Args {
			args[i] = ds.Prog.Syms.Name(a)
		}
		f := evidenceOp{Pred: op.Pred.Name, Args: args}
		b := evidenceOp{Pred: op.Pred.Name, Args: args, Truth: "retract"}
		if op.Truth == mln.Unknown {
			f, b = b, f
		}
		fwd = append(fwd, f)
		inv = append(inv, b)
	}
	slices.Reverse(inv)
	return fwd, inv
}

// toDelta resolves named ops against a text-loaded program, as tuffyd does.
func toDelta(prog *mln.Program, ops []evidenceOp) (mln.Delta, error) {
	var d mln.Delta
	for _, op := range ops {
		pred, ok := prog.Predicate(op.Pred)
		if !ok {
			return d, fmt.Errorf("unknown predicate %q", op.Pred)
		}
		args := make([]int32, len(op.Args))
		for i, name := range op.Args {
			id, ok := prog.Syms.Lookup(name)
			if !ok {
				return d, fmt.Errorf("unknown constant %q", name)
			}
			args[i] = id
		}
		if op.Truth == "retract" {
			d.Remove(pred, args)
		} else {
			d.Upsert(pred, args, mln.True)
		}
	}
	return d, nil
}

// daemon is one tuffyd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs tuffyd and returns once GET /healthz answers 200.
func startDaemon(s *serveRun) (*daemon, error) {
	logf, err := os.OpenFile(filepath.Join(s.dir, "tuffyd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	w := fmt.Sprint(s.cfg.par)
	cmd := exec.Command(s.bin, "-i", s.progPath, "-e", s.evPath, "-data", s.dataDir,
		"-addr", fmt.Sprintf("127.0.0.1:%d", s.port), "-threads", w, "-inflight", w)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", s.port), exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("tuffyd exited during start-up; see %s", logf.Name())
		default:
		}
		resp, err := s.probeClient.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, errors.New("tuffyd did not answer /healthz within 60s")
}

// kill sends SIGKILL and waits for the process to be gone. The operating
// system's page cache survives, so this checks durability at process-crash
// level only.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-d.exited
}

// serveRun is the state of one rc-serve run.
type serveRun struct {
	w   workload
	cfg config
	rr  *runReport
	in  input

	dir, bin, progPath, evPath, dataDir string
	port                                int
	probeClient                         *http.Client
	d                                   *daemon

	fwd, inv []evidenceOp
	// state is 0 on the base evidence and 1 after the forward delta; epoch
	// is the last epoch an update acknowledged.
	state int
	epoch uint64
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   opTimeout,
	}
}

// post sends one JSON request and returns the status, the body and the
// time from send to the last byte of the reply.
func post(c *http.Client, url string, body any) (int, []byte, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, time.Since(start), err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type inferBody struct {
	Kind        string `json:"kind"`
	Seed        int64  `json:"seed"`
	MaxFlips    int64  `json:"maxFlips,omitempty"`
	Samples     int    `json:"samples,omitempty"`
	Parallelism int    `json:"parallelism"`
}

// decodeAnswer reduces an /infer reply to the same answer value the
// in-process path produces.
func decodeAnswer(kind opKind, body []byte) (answer, error) {
	ah := newAnswerHasher()
	if kind == opMarginal {
		var r struct {
			Probs []struct {
				Atom string  `json:"atom"`
				P    float64 `json:"p"`
			} `json:"probs"`
			Canceled bool `json:"canceled"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, err
		}
		if r.Canceled {
			return answer{}, errors.New("answer was canceled")
		}
		for _, p := range r.Probs {
			ah.prob(p.Atom, p.P)
		}
		return answer{Hash: ah.sum()}, nil
	}
	var r struct {
		Cost      *float64 `json:"cost"`
		Flips     int64    `json:"flips"`
		TrueAtoms []string `json:"trueAtoms"`
		Canceled  bool     `json:"canceled"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	if r.Canceled {
		return answer{}, errors.New("answer was canceled")
	}
	cost := math.Inf(1)
	if r.Cost != nil {
		cost = *r.Cost
	}
	for _, a := range r.TrueAtoms {
		ah.line(a)
	}
	return answer{Cost: cost, Flips: r.Flips, Hash: ah.sum()}, nil
}

// infer sends one query over HTTP.
func (s *serveRun) infer(c *http.Client, kind opKind, seed int64) (answer, time.Duration, error) {
	body := inferBody{Kind: "map", Seed: seed, MaxFlips: s.w.flips, Parallelism: s.cfg.par}
	if kind == opMarginal {
		body = inferBody{Kind: "marginal", Seed: seed, Samples: s.w.samples, Parallelism: s.cfg.par}
	}
	status, out, lat, err := post(c, s.d.base+"/infer", body)
	if err != nil {
		return answer{}, lat, err
	}
	if status != http.StatusOK {
		return answer{}, lat, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(out))
	}
	ans, err := decodeAnswer(kind, out)
	return ans, lat, err
}

// reference computes the same query on an in-process engine.
func (s *serveRun) reference(ctx context.Context, eng *tuffy.Engine, kind opKind, seed int64) (answer, error) {
	opts := tuffy.InferOptions{Seed: seed, MaxFlips: s.w.flips, Samples: s.w.samples, Parallelism: s.cfg.par}
	ah := newAnswerHasher()
	if kind == opMarginal {
		res, err := eng.InferMarginal(ctx, opts)
		if err != nil {
			return answer{}, err
		}
		for _, ap := range res.Probs {
			ah.prob(eng.FormatAtom(ap.Atom), ap.P)
		}
		return answer{Hash: ah.sum()}, nil
	}
	res, err := eng.InferMAP(ctx, opts)
	if err != nil {
		return answer{}, err
	}
	for _, a := range res.TrueAtoms {
		ah.line(eng.FormatAtom(a))
	}
	return answer{Cost: res.Cost, Flips: res.Flips, Hash: ah.sum()}, nil
}

type updateReply struct {
	Epoch            uint64 `json:"epoch"`
	ClausesRerun     int    `json:"clausesRerun"`
	ClausesTotal     int    `json:"clausesTotal"`
	ComponentsReused int    `json:"componentsReused"`
	UpdateMillis     int64  `json:"updateMillis"`
}

// update posts the next delta of the alternating delta/inverse sequence, so
// the evidence stays stationary over the run.
func (s *serveRun) update(c *http.Client) (updateReply, time.Duration, error) {
	ops := s.fwd
	if s.state == 1 {
		ops = s.inv
	}
	var r updateReply
	status, out, lat, err := post(c, s.d.base+"/evidence", map[string]any{"ops": ops})
	if err != nil {
		return r, lat, err
	}
	if status != http.StatusOK {
		return r, lat, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(out))
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, lat, err
	}
	if r.Epoch != s.epoch+1 {
		return r, lat, fmt.Errorf("update acknowledged epoch %d, want %d", r.Epoch, s.epoch+1)
	}
	s.state, s.epoch = 1-s.state, r.Epoch
	return r, lat, nil
}

// opRecord is one operation of the closed loop.
type opRecord struct {
	kind    opKind
	client  int
	seed    int64
	state   int // evidence state the answer must come from; -1 = either
	latency time.Duration
	ans     answer
	upd     updateReply
	err     error
}

// closedLoop runs the clients until the deadline (at least minOps each) and
// returns every operation, the wall time and each client's busy share: the
// part of the wall it did not spend waiting for the daemon.
func (s *serveRun) closedLoop(dur time.Duration, minOps int) ([]opRecord, time.Duration, []float64) {
	perClient := make([][]opRecord, s.cfg.par)
	busy := make([]float64, s.cfg.par)
	base := s.cfg.seed * 1_000_000_000
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.par; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newHTTPClient()
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(s.cfg.seed*131 + int64(c)))
			var waited time.Duration
			var block []int
			for i := 0; i < minOps || time.Now().Before(deadline); i++ {
				if i%blockSize == 0 {
					block = rng.Perm(blockSize)
				}
				rec := opRecord{client: c, state: -1}
				// Always draw, so the schedule of queries does not shift
				// when an op becomes an update.
				slot, hot := block[i%blockSize], rng.Intn(hotSeeds)
				switch {
				case c == 0 && i%updateEvery == updateEvery-1:
					rec.kind = opUpdate
				case slot < blockMiss:
					rec.kind, rec.seed = opMiss, base+1000+int64(c)*10_000_000+int64(i)
				case slot < blockMiss+blockHot:
					rec.kind, rec.seed = opHot, base+int64(hot)
				default:
					rec.kind, rec.seed = opMarginal, base+1000+int64(c)*10_000_000+int64(i)
				}
				if rec.kind == opUpdate {
					rec.upd, rec.latency, rec.err = s.update(client)
				} else {
					if c == 0 {
						rec.state = s.state // only client 0 changes it
					}
					rec.ans, rec.latency, rec.err = s.infer(client, rec.kind, rec.seed)
				}
				waited += rec.latency
				perClient[c] = append(perClient[c], rec)
			}
			busy[c] = 1 - waited.Seconds()/time.Since(start).Seconds()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []opRecord
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	return all, wall, busy
}

// metricsReply mirrors what tuffyd's GET /metrics marshals.
type metricsReply struct {
	tuffy.ServerMetrics
	Memo       search.MemoStats      `json:"memo"`
	Durability tuffy.DurabilityStats `json:"durability"`
}

// setupServe is rc-serve's set-up: generate and serialise the dataset,
// write it out, build tuffyd and start it on an empty data directory until
// the first 200 from /healthz. The daemon of the last round is kept.
func (s *serveRun) setupServe(rounds int) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < rounds; i++ {
		if s.d != nil {
			s.d.kill()
		}
		if err := os.RemoveAll(s.dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		in, err := s.w.makeInput(s.cfg.seed, s.cfg.smoke)
		if err != nil {
			return nil, err
		}
		s.in = in
		if err := os.WriteFile(s.progPath, []byte(in.prog), 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(s.evPath, []byte(in.evidence), 0o644); err != nil {
			return nil, err
		}
		build := exec.Command("go", "build", "-o", s.bin, "./cmd/tuffyd")
		build.Dir = s.cfg.root
		if out, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/tuffyd: %v\n%s", err, out)
		}
		if s.d, err = startDaemon(s); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start))
	}
	return times, nil
}

// restartCycle applies one more update, records the probe answer, kills the
// daemon with SIGKILL and restarts it on the same data directory. It
// returns the time from exec to the first correct /infer answer.
func (s *serveRun) restartCycle() (time.Duration, error) {
	probeSeed := s.cfg.seed
	if _, _, err := s.update(s.probeClient); err != nil {
		return 0, fmt.Errorf("update before kill: %w", err)
	}
	before, _, err := s.infer(s.probeClient, opMiss, probeSeed)
	if err != nil {
		return 0, fmt.Errorf("probe before kill: %w", err)
	}
	s.d.kill()
	s.d = nil
	s.probeClient.CloseIdleConnections()
	start := time.Now()
	if s.d, err = startDaemon(s); err != nil {
		return 0, err
	}
	after, _, err := s.infer(s.probeClient, opMiss, probeSeed)
	if err != nil {
		return 0, fmt.Errorf("probe after restart: %w", err)
	}
	took := time.Since(start)
	var h struct {
		Epoch     uint64 `json:"epoch"`
		WarmStart bool   `json:"warmStart"`
	}
	if err := getJSON(s.probeClient, s.d.base+"/healthz", &h); err != nil {
		return 0, err
	}
	switch {
	case !h.WarmStart:
		return 0, errors.New("/healthz reports a cold start")
	case h.Epoch != s.epoch:
		return 0, fmt.Errorf("/healthz reports epoch %d, last acknowledged %d", h.Epoch, s.epoch)
	case after != before:
		return 0, fmt.Errorf("probe answered %v after restart, %v before the kill", after, before)
	}
	return took, nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// runServe measures rc-serve: a closed loop against a real tuffyd, then
// kill/restart cycles, then in-process verification of the answers.
func runServe(ctx context.Context, w workload, cfg config) (*runReport, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return nil, fmt.Errorf("%s needs the go tool on PATH to build cmd/tuffyd: %w", w.name, err)
	}
	rr := newReport(w, cfg)
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin, err := filepath.Abs(filepath.Join(cfg.work, "bin", "tuffyd"))
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &serveRun{
		w: w, cfg: cfg, rr: rr, dir: dir, bin: bin, port: port,
		progPath: filepath.Join(dir, "prog.mln"), evPath: filepath.Join(dir, "evidence.db"),
		dataDir: filepath.Join(dir, "data"), probeClient: newHTTPClient(),
	}
	defer func() {
		if s.d != nil {
			s.d.kill()
		}
	}()

	setups, err := s.setupServe(3)
	if err != nil {
		return nil, err
	}
	s.fwd, s.inv = deltaPair(s.in.ds, "refers", deltaOps, cfg.seed)

	// The in-process reference: the same text through the public Engine
	// API, exactly as a batch rep takes it.
	ref, err := coldRep(ctx, w, s.in, cfg.seed, cfg.par)
	if err != nil {
		return nil, err
	}
	eng := ref.eng
	want, err := programmaticStats(ctx, w, s.in, cfg.par)
	if err != nil {
		return nil, err
	}
	rr.check("text-loaded MRFStats equal the programmatic dataset's", ref.stats == want,
		fmt.Sprintf("text %+v, programmatic %+v", ref.stats, want))

	probe, err := s.reference(ctx, eng, opMiss, cfg.seed)
	if err != nil {
		return nil, err
	}
	overHTTP, _, err := s.infer(s.probeClient, opMiss, cfg.seed)
	rr.check("the probe query over HTTP equals the in-process Engine answer", err == nil && overHTTP == probe,
		fmt.Sprintf("HTTP %v (%v), in process %v", overHTTP, err, probe))

	ops, wall, busy := s.closedLoop(time.Duration(loopShare*float64(cfg.seconds)), pick(cfg.smoke, 60, 1))
	var m metricsReply
	if err := getJSON(s.probeClient, s.d.base+"/metrics", &m); err != nil {
		return nil, err
	}

	// Restart cycles fill the rest of the run: at least two, one in smoke.
	minCycles := pick(cfg.smoke, 1, 2)
	var restarts []time.Duration
	restartFailed := 0
	restartStart := time.Now()
	for i := 0; i < minCycles || time.Since(restartStart) < cfg.seconds-wall; i++ {
		took, err := s.restartCycle()
		if err != nil {
			if s.d == nil {
				return nil, err
			}
			restartFailed++
			rr.note("restart cycle %d: %v", i, err)
			continue
		}
		restarts = append(restarts, took)
	}
	var afterRestart metricsReply
	if err := getJSON(s.probeClient, s.d.base+"/metrics", &afterRestart); err != nil {
		return nil, err
	}
	dataBytes := dirBytes(s.dataDir)
	s.d.kill()
	s.d = nil

	// Verification against the in-process engine, state 0 then state 1.
	failed := s.verify(ctx, eng, ops)
	byKind := make([][]time.Duration, numOpKinds)
	for _, op := range ops {
		if op.err == nil {
			byKind[op.kind] = append(byKind[op.kind], op.latency)
		}
	}
	for k := opKind(0); k < numOpKinds; k++ {
		rr.phase(opNames[k], len(byKind[k])+failed[k], failed[k])
	}
	rr.phase("restart", len(restarts)+restartFailed, restartFailed)
	for _, k := range []opKind{opMiss, opMarginal, opUpdate} {
		if len(byKind[k]) == 0 {
			return nil, fmt.Errorf("%s: the closed loop completed no %s operation", w.name, opNames[k])
		}
	}

	miss := summarize(millis(byKind[opMiss]))
	rr.endToEnd("setup_s", median(seconds(setups)), summarize(seconds(setups)))
	rr.endToEnd("answer_ms", miss.P50, miss)
	rr.endToEnd("ops_per_s", float64(len(ops))/wall.Seconds(), summary{N: len(ops)})
	rr.endToEnd("live_heap_mb", ref.heapMB, summary{N: 1})
	rr.detail("map_cost", probe.Cost, "cost")
	rr.detailSample("map_p95_ms", percentile(millis(byKind[opMiss]), 0.95), "ms", miss)
	marg := summarize(millis(byKind[opMarginal]))
	rr.detailSample("marginal_p50_ms", marg.P50, "ms", marg)
	upd := summarize(millis(byKind[opUpdate]))
	rr.detailSample("update_p50_ms", upd.P50, "ms", upd)
	rst := summarize(seconds(restarts))
	rr.detailSample("restart_s", rst.P50, "s", rst)
	rr.detail("loop_wall_s", wall.Seconds(), "s")
	maxBusy := 0.0
	for _, b := range busy {
		maxBusy = math.Max(maxBusy, b)
	}
	rr.detail("client_busy_share", 100*maxBusy, "%")

	if cfg.trace {
		replay, err := s.serveLayers(ctx, ref, ops, m, afterRestart, dataBytes)
		if err != nil {
			return nil, err
		}
		rr.check("traced replay reproduces the Engine path's MRFStats, cost, flips and answer",
			replay.stats == ref.stats && replay.ans == ref.ans, fmt.Sprintf("replay %v, engine %v", replay.ans, ref.ans))
		rr.check("cache_hit_ratio > 0 and MAP latency >= 1 ms", m.CacheHits > 0 && miss.P50 >= 1,
			fmt.Sprintf("hits %d, map p50 %.3f ms", m.CacheHits, miss.P50))
	}
	return rr, nil
}

// serveLayers fills rc-serve's per-layer metrics: the layer numbers of the
// same text from the in-process replay, then the serving layers as the
// daemon itself reports them (m after the closed loop, afterRestart after
// the last restart). It returns the first traced rep.
func (s *serveRun) serveLayers(ctx context.Context, ref batchRep, ops []opRecord, m, afterRestart metricsReply, dataBytes int64) (layerSample, error) {
	rr := s.rr
	var layers []layerSample
	for i := 0; i < 2; i++ {
		ls, err := tracedRep(ctx, s.w, s.in, s.cfg, s.cfg.tracer)
		if err != nil {
			return layerSample{}, err
		}
		layers = append(layers, ls)
	}
	fillLayers(rr, s.w, layers, ref.wall.Seconds())
	rr.layer("queue_wait_ms_avg", float64(m.AvgQueueWait())/float64(time.Millisecond))
	rr.layer("cache_hit_ratio", 100*float64(m.CacheHits)/float64(max(1, m.CacheHits+m.CacheMisses)))
	rr.layer("completed", float64(m.Completed))
	rr.layer("batched", float64(m.Batched))
	rr.layer("rejected", float64(m.RejectedQueue+m.RejectedBudget+m.Expired))
	rr.layer("memo_hits", float64(m.Memo.Hits))
	rr.layer("memo_misses", float64(m.Memo.Misses))
	var hot []time.Duration
	var srvMs, rerun, total, reused []float64
	for _, op := range ops {
		switch {
		case op.err != nil:
		case op.kind == opHot:
			hot = append(hot, op.latency)
		case op.kind == opUpdate:
			srvMs = append(srvMs, float64(op.upd.UpdateMillis))
			rerun = append(rerun, float64(op.upd.ClausesRerun))
			total = append(total, float64(op.upd.ClausesTotal))
			reused = append(reused, float64(op.upd.ComponentsReused))
		}
	}
	rr.layer("hit_p50_ms", median(millis(hot)))
	rr.layer("update_server_ms", median(srvMs))
	rr.layer("clauses_rerun", median(rerun))
	rr.layer("clauses_total", median(total))
	rr.layer("components_reused", median(reused))
	rr.layer("recovery_ms", float64(afterRestart.Durability.RecoveryTime)/float64(time.Millisecond))
	rr.layer("replayed_deltas", float64(afterRestart.Durability.ReplayedDeltas))
	rr.layer("data_dir_bytes", float64(dataBytes))
	return layers[0], nil
}

// verify recomputes answers on the in-process engine and returns the failed
// operations per kind: transport errors, refusals and wrong answers. Every
// hot-set answer is checked, so every cache hit equals a cold in-process
// run; fresh-seed and marginal answers are sampled from client 0, whose
// evidence state at send time is known exactly. Other clients' answers may
// come from either side of a concurrent update.
func (s *serveRun) verify(ctx context.Context, eng *tuffy.Engine, ops []opRecord) (failed [numOpKinds]int) {
	type refKey struct {
		kind  opKind
		seed  int64
		state int
	}
	refs := map[refKey]answer{}
	var selected []int
	sampled := [numOpKinds]int{}
	limit := [numOpKinds]int{opMiss: verifyMisses, opMarginal: verifyMargs}
	for i, op := range ops {
		switch {
		case op.err != nil:
			failed[op.kind]++
			s.rr.note("%s seed %d: %v", opNames[op.kind], op.seed, op.err)
			continue
		case op.kind == opUpdate:
			continue
		case op.kind != opHot:
			if op.state < 0 || sampled[op.kind] >= limit[op.kind] {
				continue
			}
			sampled[op.kind]++
		}
		selected = append(selected, i)
		for st := 0; st < 2; st++ {
			if op.state < 0 || op.state == st {
				refs[refKey{op.kind, op.seed, st}] = answer{}
			}
		}
	}
	ok := true
	for st := 0; st < 2 && ok; st++ {
		if st == 1 {
			d, err := toDelta(eng.Prog(), s.fwd)
			if err == nil {
				_, err = eng.UpdateEvidence(ctx, d)
			}
			if err != nil {
				s.rr.check("in-process engine applies the delta", false, err.Error())
				return failed
			}
		}
		for k := range refs {
			if k.state != st {
				continue
			}
			a, err := s.reference(ctx, eng, k.kind, k.seed)
			if err != nil {
				s.rr.check("in-process reference answers", false, err.Error())
				return failed
			}
			refs[k] = a
		}
	}
	wrong := 0
	for _, i := range selected {
		op := ops[i]
		match := false
		for st := 0; st < 2; st++ {
			if op.state < 0 || op.state == st {
				match = match || op.ans == refs[refKey{op.kind, op.seed, st}]
			}
		}
		if !match {
			wrong++
			failed[op.kind]++
			s.rr.note("%s seed %d (client %d, state %d): HTTP answered %v", opNames[op.kind], op.seed, op.client, op.state, op.ans)
		}
	}
	s.rr.check(fmt.Sprintf("HTTP answers equal the in-process Engine's (%d checked: every hot-set answer, %d fresh-seed, %d marginal)",
		len(selected), sampled[opMiss], sampled[opMarginal]), wrong == 0, fmt.Sprintf("%d wrong", wrong))
	return failed
}
