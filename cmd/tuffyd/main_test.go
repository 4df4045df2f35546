package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tuffy"
	"tuffy/internal/wire"
)

// runMainEnv, when set, turns this test binary into tuffyd itself: TestMain
// calls main() with the arguments the parent test passed, so the worker
// fleet below is real tuffyd processes, not goroutines.
const runMainEnv = "TUFFYD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		name        string
		avg         time.Duration
		waiting     int64
		maxInFlight int
		want        int64
	}{
		// Before any query completes the average defaults to 1s, and the
		// hint never drops under the 1s floor: a client that retries
		// immediately would just be rejected again.
		{"no history", 0, 0, 4, 1},
		{"fast queries clamp to floor", 10 * time.Millisecond, 2, 4, 1},
		// Drain estimate: (waiting+1) queries at avg each, maxInFlight at
		// a time, rounded up to whole seconds.
		{"mid queue", 2 * time.Second, 7, 4, 4},
		{"rounds up", time.Second, 4, 4, 2},
		// Deep queues of slow queries saturate at the 60s ceiling rather
		// than telling clients to go away for minutes.
		{"slow deep queue clamps to ceiling", 10 * time.Second, 100, 4, 60},
		// `-inflight 0` selects the server's default; the estimate must not
		// divide by zero inside an HTTP handler whatever it is handed.
		{"zero slots count as one", time.Second, 3, 0, 4},
	}
	for _, c := range cases {
		if got := retryAfterHint(c.avg, c.waiting, c.maxInFlight); got != c.want {
			t.Errorf("%s: retryAfterHint(%v, %d, %d) = %d, want %d",
				c.name, c.avg, c.waiting, c.maxInFlight, got, c.want)
		}
	}
}

// logWatcher collects a subprocess's stderr and reports the address from
// its "worker serving on ADDR (epoch N)" line once the line is complete.
type logWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1; receives at most once
	sent bool
}

var servingLine = regexp.MustCompile(`worker serving on (\S+) \(epoch \d+\)\n`)

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := servingLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.addr <- string(m[1])
			w.sent = true
		}
	}
	return len(p), nil
}

// startWorker re-execs this binary as `tuffyd -i prog -e ev -worker
// 127.0.0.1:0` and waits for the address it logs.
func startWorker(t *testing.T, progPath, evPath string) (addr string, proc *os.Process) {
	t.Helper()
	lw := &logWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(os.Args[0], "-i", progPath, "-e", evPath, "-worker", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = lw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	select {
	case addr = <-lw.addr:
	case err := <-exited:
		exited <- err // for the cleanup
		t.Fatalf("tuffyd -worker exited before serving: %v\n%s", err, lw.buf.Bytes())
	case <-time.After(60 * time.Second):
		t.Fatal("tuffyd -worker never logged its address")
	}
	return addr, cmd.Process
}

// chainsProgram is the IE shape: one independent component per token
// chain, and no world of cost zero, so every search spends its whole
// budget and a kill lands while shards are running.
func chainsProgram(chains, length int) (prog, ev string) {
	prog = `*next(token, token)
*hint(token, field)
field(token, field)
4    field(t, f1), field(t, f2) => f1 = f2
1    next(t1, t2), field(t1, f) => field(t2, f)
2    hint(t, f) => field(t, f)
-0.3 field(t, f)
`
	var b strings.Builder
	for c := 0; c < chains; c++ {
		for i := 1; i < length; i++ {
			fmt.Fprintf(&b, "next(T%d_%d, T%d_%d)\n", c, i-1, c, i)
		}
		// Two disagreeing hints per chain keep the propagation rule busy.
		fmt.Fprintf(&b, "hint(T%d_0, F%d)\nhint(T%d_%d, F%d)\n", c, c%3, c, length-1, (c+1)%3)
	}
	return prog, b.String()
}

// The distributed tier across a real process boundary: workers are tuffyd
// subprocesses that parse and fingerprint the program text themselves.
// Answers must equal a local engine's bit for bit at every fleet size, and
// a worker killed with SIGKILL while queries flow must fail none of them.
func TestWorkerProcessesMatchLocalEngine(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	progPath, evPath := filepath.Join(dir, "prog.mln"), filepath.Join(dir, "ev.db")
	progText, evText := chainsProgram(12, 6)
	for path, text := range map[string]string{progPath: progText, evPath: evText} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := loadProgram(progPath)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := loadEvidence(prog, evPath)
	if err != nil {
		t.Fatal(err)
	}
	openEngine := func() *tuffy.Engine {
		eng, err := tuffy.Open(prog, ev, tuffy.EngineConfig{})
		if err == nil {
			err = eng.Ground(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// Both kinds of answer reduce to the bits that must match.
	mapBits := func(r *tuffy.MAPResult, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		if r.Partitions < 2 {
			t.Fatalf("workload should decompose, got %d partitions", r.Partitions)
		}
		return fmt.Sprintf("%016x|%d|%v", math.Float64bits(r.Cost), r.Flips, r.State)
	}
	margBits := func(r *tuffy.MarginalResult, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range r.Probs {
			fmt.Fprintf(&b, "%v=%016x|", p.Atom, math.Float64bits(p.P))
		}
		return b.String()
	}
	type query struct {
		direct func(*tuffy.Engine) string
		served func(*tuffy.Server) string
	}
	mapQuery := func(o tuffy.InferOptions) query {
		return query{
			func(e *tuffy.Engine) string { return mapBits(e.InferMAP(ctx, o)) },
			func(s *tuffy.Server) string { return mapBits(s.InferMAP(ctx, tuffy.Request{Options: o})) },
		}
	}
	queries := []query{
		mapQuery(tuffy.InferOptions{MaxFlips: 300_000, Seed: 7}),
		mapQuery(tuffy.InferOptions{MaxFlips: 100_000, Seed: 8, MaxTries: 2}),
		{
			func(e *tuffy.Engine) string {
				return margBits(e.InferMarginal(ctx, tuffy.InferOptions{Samples: 40, Seed: 9}))
			},
			func(s *tuffy.Server) string {
				return margBits(s.InferMarginal(ctx, tuffy.Request{Options: tuffy.InferOptions{Samples: 40, Seed: 9}}))
			},
		},
	}
	ref := openEngine()
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = q.direct(ref)
	}

	var addrs []string
	var procs []*os.Process
	for range 2 {
		addr, proc := startWorker(t, progPath, evPath)
		addrs, procs = append(addrs, addr), append(procs, proc)
	}
	// serve builds a coordinator over the first n workers and waits until
	// they are all in membership, so the first query already shards.
	serve := func(n int) (*tuffy.Server, *tuffy.Engine) {
		eng := openEngine()
		srv, err := tuffy.Serve(tuffy.ServerConfig{
			CacheEntries:     -1, // every query runs, none is served from cache
			Workers:          addrs[:n],
			WorkerProbeEvery: 50 * time.Millisecond,
		}, eng)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			healthy := 0
			for _, ws := range srv.Workers() {
				if ws.Healthy {
					healthy++
				}
			}
			if healthy == n {
				return srv, eng
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d workers joined: %+v", healthy, n, srv.Workers())
			}
		}
	}
	// round issues every query once and requires the local engine's answers.
	round := func(srv *tuffy.Server, tag string) {
		for i, q := range queries {
			if q.served(srv) != want[i] {
				t.Fatalf("%s, query %d: answer diverges from the local engine", tag, i)
			}
		}
	}
	// served asks a worker process how many shard requests it answered.
	served := func(addr string, coordinator *tuffy.Engine) int64 {
		c, err := wire.Dial(ctx, addr, coordinator.Identity())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reply, err := c.Roundtrip(ctx, wire.TypePing, nil, wire.TypePong)
		if err != nil {
			t.Fatal(err)
		}
		st, err := wire.DecodeStatsReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		return st.Served
	}

	for n := 0; n <= 2; n++ {
		srv, eng := serve(n)
		round(srv, fmt.Sprintf("%d workers", n))
		// Equal answers must not mean "nothing crossed the process boundary".
		if n > 0 && served(addrs[n-1], eng) == 0 {
			t.Fatalf("%d workers: worker process %d served no shard", n, n-1)
		}
		if n < 2 {
			continue
		}
		// The second worker is killed (SIGKILL) the moment it is seen holding
		// a shard. Wherever in a query that lands, no query may fail or
		// change its answer, during the kill or in the two rounds after it.
		killed := make(chan struct{})
		go func() {
			defer close(killed)
			for deadline := time.Now().Add(10 * time.Second); srv.Workers()[1].InFlight == 0 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			procs[1].Kill()
		}()
		for after := 0; after < 2; {
			round(srv, "2 workers, one killed")
			select {
			case <-killed:
				after++
			default:
			}
		}
	}
}
