package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tuffy"
	"tuffy/internal/mln"
)

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

// figure1Daemon is the handler a deployed daemon runs, over a grounded
// Figure 1 engine: per-query flip and sample caps, and a query deadline
// that bounds what any one body can cost. A memory budget (0 = none) of
// 300 bytes cuts the network into four parts, so Auto MAP queries run
// Gauss-Seidel.
func figure1Daemon(f testing.TB, budget int64) *handler {
	prog, err := tuffy.LoadProgramString(mln.Figure1Program)
	if err != nil {
		f.Fatal(err)
	}
	ev, err := tuffy.LoadEvidenceString(prog, mln.Figure1Evidence)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := tuffy.Open(prog, ev, tuffy.EngineConfig{MemoryBudgetBytes: budget})
	if err == nil {
		err = eng.Ground(context.Background())
	}
	if err != nil {
		f.Fatal(err)
	}
	srv, err := tuffy.Serve(tuffy.ServerConfig{
		MaxFlipsPerQuery:   20_000,
		MaxSamplesPerQuery: 100,
		MaxQueryTime:       time.Second,
	}, eng)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return &handler{srv: srv, eng: eng}
}

// fuzzBody posts body to path and checks the status: a body that is not
// one JSON value of v's shape answers 400, and every status is one of
// allowed. A panic anywhere in the handler fails the fuzz run by itself.
func fuzzBody(t *testing.T, h *handler, path string, body []byte, v any, allowed ...int) {
	rec := httptest.NewRecorder()
	h.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
	malformed := json.Unmarshal(body, v) != nil
	if malformed && rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body %q answered %d, want 400: %s", body, rec.Code, rec.Body)
	}
	for _, code := range allowed {
		if rec.Code == code {
			return
		}
	}
	t.Fatalf("body %q answered %d, want one of %v: %s", body, rec.Code, allowed, rec.Body)
}

// FuzzInferBody: whatever a client posts to /infer, the daemon answers
// with a status a client can act on and never panics, with or without a
// memory budget that makes Auto MAP run Gauss-Seidel. Seeds are the query
// body of the package doc's curl example and variations of it.
func FuzzInferBody(f *testing.F) {
	f.Add([]byte(`{"kind":"map","seed":1,"maxFlips":20000}`))
	f.Add([]byte(`{"kind":"map","seed":1,"maxFlips":20000,"priority":1}`))
	f.Add([]byte(`{"kind":"marginal","samples":80}`))
	f.Add([]byte(`{"kind":"map","mode":"indb","maxFlips":2000,"parallelism":1048576}`))
	f.Add([]byte(`{"kind":"marginal","samples":100000,"priority":-3}`))
	f.Add([]byte(`{"kind":"map","seed":1} {"kind":"map"}`))
	f.Add([]byte(`{"kind":"nope"}`))
	f.Add([]byte(`{"kind":"map","maxFlips":2000,"maxTries":2000000000}`))
	f.Add([]byte(`{"kind":"map","maxTries":2000000000}`))
	f.Add([]byte(`{"kind":"map","rounds":2000000000}`))
	hs := []*handler{figure1Daemon(f, 0), figure1Daemon(f, 300)}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, h := range hs {
			fuzzBody(t, h, "/infer", body, &inferRequest{},
				http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout)
		}
	})
}

// A body that still sends the retired "priority" field is accepted, and
// the field is ignored: the answer is the one the same query gets without
// it.
func TestInferIgnoresPriority(t *testing.T) {
	h := figure1Daemon(t, 0)
	post := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		h.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, q := range []string{`"kind":"map","seed":1,"maxFlips":20000`, `"kind":"marginal","seed":2,"samples":50`} {
		code, with := post(`{` + q + `,"priority":1}`)
		if code != http.StatusOK {
			t.Fatalf("%s with priority answered %d: %s", q, code, with)
		}
		if code, without := post(`{` + q + `}`); code != http.StatusOK || without != with {
			t.Fatalf("%s: without priority answered %d %s, with it %s", q, code, without, with)
		}
	}
}

// FuzzEvidenceBody is FuzzInferBody for /evidence, which may also answer
// 500 when a well-formed update itself fails. Seeds are the evidence body
// of the package doc's curl example and the same ops over Figure 1's
// predicates and constants.
func FuzzEvidenceBody(f *testing.F) {
	f.Add([]byte(`{"ops":[{"pred":"friend","args":["Anna","Bob"]},{"pred":"smokes","args":["Carl"],"truth":"retract"}]}`))
	f.Add([]byte(`{"ops":[{"pred":"refers","args":["P2","P3"]},{"pred":"cat","args":["P2","DB"],"truth":"retract"}]}`))
	f.Add([]byte(`{"ops":[{"pred":"wrote","args":["Jake","P1"],"truth":"false"}]}`))
	f.Add([]byte(`{"ops":[{"pred":"refers","args":["P2"]}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{"ops":[{"pred":"cat","args":["P1","DB"],"truth":"maybe"}]}`))
	h := figure1Daemon(f, 0)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzBody(t, h, "/evidence", body, &evidenceRequest{},
			http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusInternalServerError)
	})
}
