package restapi

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/serving"
	"repro/internal/simtime"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func newGateway(t *testing.T, model string) (*Gateway, *serving.Server) {
	t.Helper()
	spec, err := llm.Lookup(model)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.NewScaled(100000, origin)
	src := rng.New(5)
	srv, err := serving.New(serving.Config{
		UID:     "r3.service.0001",
		Backend: serving.LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("m"))},
		Clock:   clock,
		Src:     src.Derive("s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, srv
}

// newCaller returns a Caller for g's endpoint.
func newCaller(t *testing.T, g *Gateway) *Caller {
	t.Helper()
	c, err := NewCaller(g.Endpoint(), simtime.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// getHealth fetches g's GET /api/health record.
func getHealth(t *testing.T, g *Gateway) health {
	t.Helper()
	resp, err := http.Get(g.URL() + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGenerateOverHTTP(t *testing.T) {
	g, _ := newGateway(t, "llama-8b")
	c := newCaller(t, g)
	resp, err := c.generate(context.Background(), generateRequest{
		Model: "llama-8b", Prompt: "what genes respond to radiation", MaxTokens: 32,
		RequestID: "req.1", ClientID: "client.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "llama-8b" || resp.OutputTokens < 1 || !strings.HasPrefix(resp.Response, "[llama-8b]") {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Timing.InferTime() <= 0 {
		t.Fatal("no inference timing over REST")
	}
}

func TestGenerateConcurrent(t *testing.T) {
	g, srv := newGateway(t, "noop")
	c := newCaller(t, g)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.generate(context.Background(), generateRequest{Model: "noop", Prompt: "x"})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.Processed() != 16 {
		t.Fatalf("processed = %d", srv.Processed())
	}
}

func TestHealthEndpoint(t *testing.T) {
	g, _ := newGateway(t, "noop")
	if h := getHealth(t, g); !h.Ready || h.ServiceUID != "r3.service.0001" || h.Model != "noop" {
		t.Fatalf("health = %+v", h)
	}
}

func TestGenerateAgainstStoppedServer(t *testing.T) {
	g, srv := newGateway(t, "noop")
	srv.Stop()
	c := newCaller(t, g)
	if _, err := c.generate(context.Background(), generateRequest{Model: "noop", Prompt: "x"}); err == nil {
		t.Fatal("generate succeeded against stopped server")
	}
	if getHealth(t, g).Ready {
		t.Fatal("stopped server reports ready")
	}
}

// gateBackend holds every inference until release closes, and reports on
// entered each one it starts.
type gateBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b gateBackend) Name() string        { return "gate" }
func (b gateBackend) Load() time.Duration { return 0 }

func (b gateBackend) Infer(string, int) llm.Result {
	b.entered <- struct{}{}
	<-b.release
	return llm.Result{Text: "done", PromptTokens: 1, OutputTokens: 1}
}

func (b gateBackend) InferBatch(items []llm.BatchItem) []llm.Result {
	out := make([]llm.Result, len(items))
	for i, it := range items {
		out[i] = b.Infer(it.Prompt, it.MaxTokens)
	}
	return out
}

// TestStopFlushedRequestFails: a request still queued when the server
// stops gets the server's ErrStopped reply, and the gateway answers it as a
// failure (503) rather than as an empty success.
func TestStopFlushedRequestFails(t *testing.T) {
	gate := gateBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	clock := simtime.NewScaled(100000, origin)
	srv, err := serving.New(serving.Config{UID: "r3.service.0001", Backend: gate, Clock: clock, Src: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	c := newCaller(t, g)

	type result struct {
		reply proto.InferenceReply
		err   error
	}
	infer := func() chan result {
		out := make(chan result, 1)
		go func() {
			reply, _, err := c.Infer(context.Background(), "x", 1)
			out <- result{reply, err}
		}()
		return out
	}
	served := infer()
	<-gate.entered
	flushed := infer()
	for deadline := time.Now().Add(10 * time.Second); srv.Queued() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
	}
	srv.Stop()
	close(gate.release)

	if r := <-served; r.err != nil || r.reply.Text != "done" {
		t.Fatalf("in-service request: %+v, %v; want its reply", r.reply, r.err)
	}
	if r := <-flushed; r.err == nil || !strings.Contains(r.err.Error(), serving.ErrStopped.Error()) {
		t.Fatalf("flushed request: %+v, %v; want the server's %q", r.reply, r.err, serving.ErrStopped)
	}
}

func TestEndpointRecord(t *testing.T) {
	g, _ := newGateway(t, "llama-8b")
	ep := g.Endpoint()
	if ep.Protocol != "rest" || ep.Model != "llama-8b" || !strings.HasPrefix(ep.Address, "http://") {
		t.Fatalf("endpoint = %+v", ep)
	}
}

func TestMalformedRequestRejected(t *testing.T) {
	g, _ := newGateway(t, "noop")
	resp, err := http.Post(g.URL()+"/api/generate", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestGenerateAgainstDeadServer(t *testing.T) {
	c, err := NewCaller(proto.Endpoint{ServiceUID: "dead", Address: "http://127.0.0.1:1", Protocol: "rest"}, simtime.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.generate(context.Background(), generateRequest{Model: "noop"}); err == nil {
		t.Fatal("generate against dead server succeeded")
	}
}
