package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/serve"
)

// testServer is an inference server over a tiny graph with an
// untrained model and full-neighborhood sampling; the handlers' routing
// and status codes do not depend on what the model predicts.
func testServer(t *testing.T) *serve.Server {
	t.Helper()
	srv, err := serve.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// testConfig is testServer's configuration.
func testConfig() serve.Config {
	ds := dataset.Build(dataset.Spec{
		Name: "aptserve-test", Abbr: "AT",
		NumNodes: 300, AvgDegree: 6, FeatDim: 8, Classes: 3,
		SkewA: 0.45, HomophilyDegree: 4, TrainFraction: 0.3, Seed: 5,
	}, true)
	return serve.Config{
		Graph:    ds.Graph,
		Feats:    ds.Feats,
		Model:    nn.NewGraphSAGE(ds.FeatDim, 8, ds.Classes, 2),
		Sampling: sample.Config{Fanouts: []int{0, 0}, Method: sample.Full},
		Platform: hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2),
		Seed:     3,
	}
}

// do sends one request through the daemon's mux.
func do(mux http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestPredictDropsGoneClient: a /predict whose client has already gone
// (its request context is done) is never executed, so the server's
// answered-request count does not move.
func TestPredictDropsGoneClient(t *testing.T) {
	srv := testServer(t)
	mux := newMux(srv)
	before := srv.Stats().Requests
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"nodes":[1,2,3]}`)).WithContext(ctx)
	if rec := do(mux, req); rec.Code == http.StatusOK {
		t.Errorf("cancelled request answered 200: %s", rec.Body)
	}
	if after := srv.Stats().Requests; after != before {
		t.Errorf("cancelled request was executed: requests %d -> %d", before, after)
	}
}

// oversizedBody is a well-formed /predict body of valid node ids that
// is larger than maxPredictBody.
func oversizedBody() string {
	return `{"nodes":[` + strings.Repeat("1,", maxPredictBody/2) + `1]}`
}

// TestPredictRejectsOversizedBody: a body over the limit is answered
// 413 without reaching the server, however valid its ids are.
func TestPredictRejectsOversizedBody(t *testing.T) {
	srv := testServer(t)
	mux := newMux(srv)
	before := srv.Stats().Requests
	rec := do(mux, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(oversizedBody())))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%.80s)", rec.Code, rec.Body)
	}
	if after := srv.Stats().Requests; after != before {
		t.Errorf("oversized body was executed: requests %d -> %d", before, after)
	}
}

// FuzzPredictBody drives /predict with arbitrary bodies: every answer is
// 200 with one result per node of the body's first JSON value, 400 (not
// a request), 404 (a node outside the graph) or 413 (over the limit),
// and only a body over the limit is 413.
func FuzzPredictBody(f *testing.F) {
	for _, body := range []string{
		`{"nodes":[0,5,5,299]}`, `{"nodes":[]}`, ``, `{"nodes":[1,`, `{"nodes":[1,300]}`,
		`{"nodes":[-1]}`, `[1,2]`, oversizedBody(),
	} {
		f.Add(body)
	}
	srv, err := serve.New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	mux := newMux(srv)
	f.Fuzz(func(t *testing.T, body string) {
		rec := do(mux, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var req predictRequest
			var resp predictResponse
			if json.NewDecoder(strings.NewReader(body)).Decode(&req) != nil || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
				len(resp.Results) != len(req.Nodes) {
				t.Errorf("200 for %.80q: %.200s", body, rec.Body)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxPredictBody {
				t.Errorf("413 for a %d-byte body", len(body))
			}
		default:
			t.Errorf("status %d for %.80q: %.200s", rec.Code, body, rec.Body)
		}
	})
}

func TestHandlers(t *testing.T) {
	mux := newMux(testServer(t))
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"known nodes", http.MethodPost, "/predict", `{"nodes":[0,5,5,299]}`, http.StatusOK},
		{"node outside the graph", http.MethodPost, "/predict", `{"nodes":[1,300]}`, http.StatusNotFound},
		{"malformed body", http.MethodPost, "/predict", `{"nodes":[1,`, http.StatusBadRequest},
		{"reload by GET", http.MethodGet, "/reload", "", http.StatusMethodNotAllowed},
	} {
		rec := do(mux, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
			continue
		}
		if tc.want != http.StatusOK {
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v: %s", tc.name, err, rec.Body)
		}
		if len(resp.Results) != 4 || resp.Results[0].Node != 0 || resp.Results[3].Node != 299 {
			t.Errorf("%s: results %+v, want nodes 0 5 5 299 in request order", tc.name, resp.Results)
		}
	}
}

// TestPredictErrorStatus pins the error -> status mapping: a full queue
// and a closing server are both 503, and only the full queue invites a
// retry.
func TestPredictErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		err        error
		retryAfter string
	}{
		{serve.ErrOverloaded, "1"},
		{serve.ErrServerClosed, ""},
	} {
		rec := httptest.NewRecorder()
		predictError(rec, tc.err)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != tc.retryAfter {
			t.Errorf("%v: status %d, Retry-After %q; want 503, %q",
				tc.err, rec.Code, rec.Header().Get("Retry-After"), tc.retryAfter)
		}
	}

	// The same mapping end to end: a request to a closed server.
	srv := testServer(t)
	mux := newMux(srv)
	srv.Close()
	rec := do(mux, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"nodes":[1]}`)))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), serve.ErrServerClosed.Error()) {
		t.Errorf("closed server: status %d, body %q; want 503 naming %v", rec.Code, rec.Body, serve.ErrServerClosed)
	}
}

// TestPprofEndpoints: the daemon serves its own profiles on its mux,
// the index and a heap profile in text form among them.
func TestPprofEndpoints(t *testing.T) {
	mux := newMux(testServer(t))
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		rec := do(mux, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Errorf("GET %s: status %d with %d body bytes, want 200 and a body", path, rec.Code, rec.Body.Len())
		}
	}
}

// TestRejectedFlags: every flag set that cannot serve exits 2 with one
// "aptserve:" line naming the flag, before the model is trained or a
// request served: the listener is bound before training, and the job
// flags are judged by job's Check (-devices, -lr) or where the job is
// built (-scale, -hidden).
func TestRejectedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "aptserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := []string{"-data", "PS", "-scale", "0.02", "-train-epochs", "1", "-addr", "127.0.0.1:0"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-train-epochs", "0"}, "-train-epochs 0"},
		{[]string{"-cache-frac", "2"}, "-cache-frac 2"},
		{[]string{"-cache-frac", "-1"}, "-cache-frac -1"},
		{[]string{"-max-batch", "-5"}, "-max-batch -5"},
		{[]string{"-addr", "bogus::"}, "-addr bogus::"},
		{[]string{"-scale", "0"}, "scale 0"},
		{[]string{"-hidden", "-3"}, "hidden -3"},
		{[]string{"-devices", "0"}, "-devices 0: need at least one device"},
		{[]string{"-lr", "-1"}, "-lr -1"},
		{[]string{"-lr", "NaN"}, "-lr NaN"},
	} {
		// A flag set that is not refused trains and then serves until
		// killed.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, bin, append(append([]string(nil), base...), tc.args...)...)
		out, _ := cmd.CombinedOutput()
		cancel()
		code := cmd.ProcessState.ExitCode()
		if code != 2 || !strings.HasPrefix(string(out), "aptserve: ") ||
			!strings.Contains(string(out), tc.want) || strings.Count(string(out), "\n") != 1 {
			t.Errorf("aptserve %v: exit %d, output %q; want exit 2 and one line containing %q",
				tc.args, code, out, tc.want)
		}
	}
}
