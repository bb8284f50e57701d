package serving

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/msgq"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// newServer returns a server on an auto-advancing virtual clock (vclock)
// with the test goroutine registered, deregistered by its cleanup after the
// server stops: wait through the clock (Settle, Drain), and wrap any other
// wait in offClock.
func newServer(t *testing.T, model string, concurrency int) *Server {
	clock := simtime.NewVirtualAuto(origin)
	clock.AddRunner()
	t.Cleanup(clock.DoneRunner) // after s.Stop: cleanups run last-in first-out
	return newServerOn(t, model, concurrency, clock)
}

// vclock returns the virtual clock s runs on.
func vclock(s *Server) *simtime.Virtual { return simtime.RunnersOf(s.cfg.Clock) }

// offClock runs wait, a wait on something other than clock, with the
// registered caller's token given back, so that time runs on meanwhile.
func offClock(clock *simtime.Virtual, wait func()) {
	clock.DoneRunner()
	wait()
	clock.AddRunner()
}

// newServerOn is newServer on the given clock.
func newServerOn(t *testing.T, model string, concurrency int, clock simtime.Clock) *Server {
	t.Helper()
	spec, err := llm.Lookup(model)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	s, err := New(Config{
		UID:         "service.0001",
		Backend:     LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("model"))},
		Clock:       clock,
		Src:         src.Derive("server"),
		Concurrency: concurrency,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// submitAll submits n requests at once, each from its own goroutine
// registered with clock, and returns their replies' timings by request.
func submitAll(t *testing.T, clock *simtime.Virtual, s *Server, n, maxTokens int) []proto.Timing {
	t.Helper()
	timings := make([]proto.Timing, n)
	var wg sync.WaitGroup
	wg.Add(n)
	clock.AddRunner() // the spawner holds the clock until every request is out
	for i := range timings {
		clock.Go(func() {
			defer wg.Done()
			reply, err := s.Submit(context.Background(), req(fmt.Sprintf("r%d", i), "prompt", maxTokens))
			if err != nil {
				t.Error(err)
			}
			timings[i] = reply.Timing
		})
	}
	clock.DoneRunner()
	wg.Wait()
	return timings
}

func start(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
}

func req(uid, prompt string, max int) proto.InferenceRequest {
	return proto.InferenceRequest{RequestUID: uid, ClientUID: "task.0001", Prompt: prompt, MaxTokens: max}
}

func TestNewValidation(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	src := rng.New(1)
	spec, _ := llm.Lookup("noop")
	backend := LLMBackend{M: llm.NewInstance(spec, clock, src)}
	if _, err := New(Config{Clock: clock, Src: src}); err == nil {
		t.Fatal("New accepted nil backend")
	}
	if _, err := New(Config{Backend: backend, Src: src}); err == nil {
		t.Fatal("New accepted nil clock")
	}
	if _, err := New(Config{Backend: backend, Clock: clock}); err == nil {
		t.Fatal("New accepted nil src")
	}
}

func TestStartLoadsBackend(t *testing.T) {
	s := newServer(t, "llama-8b", 1)
	if s.Ready() {
		t.Fatal("server ready before Start")
	}
	load, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	if load < 10*time.Second {
		t.Fatalf("load time %v implausibly small for llama-8b", load)
	}
	if !s.Ready() {
		t.Fatal("server not ready after Start")
	}
	if _, err := s.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	s := newServer(t, "noop", 1)
	_, err := s.Submit(context.Background(), req("r1", "x", 1))
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("err = %v, want ErrNotReady", err)
	}
	if s.Rejected() != 1 {
		t.Fatalf("Rejected = %d", s.Rejected())
	}
}

func TestSubmitRoundTrip(t *testing.T) {
	s := newServer(t, "llama-8b", 1)
	start(t, s)
	reply, err := s.Submit(context.Background(), req("r1", "classify this sample", 32))
	if err != nil {
		t.Fatal(err)
	}
	if reply.RequestUID != "r1" || reply.ServiceUID != "service.0001" || reply.Model != "llama-8b" {
		t.Fatalf("reply header = %+v", reply)
	}
	if reply.OutputTokens < 1 {
		t.Fatal("no output tokens")
	}
	if s.Processed() != 1 {
		t.Fatalf("Processed = %d", s.Processed())
	}
}

func TestTimingMonotoneAndDecomposable(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "llama-8b", 1, clock)
	start(t, s)
	tm := submitAll(t, clock, s, 1, 1024)[0]
	if tm.ReceivedAt.After(tm.DequeuedAt) || tm.DequeuedAt.After(tm.InferStartAt) ||
		tm.InferStartAt.After(tm.InferEndAt) || tm.InferEndAt.After(tm.RepliedAt) {
		t.Fatalf("timing not monotone: %+v", tm)
	}
	if tm.InferTime() <= 0 {
		t.Fatal("zero inference time for llama")
	}
	if tm.ServiceTime() <= 0 {
		t.Fatal("zero service overhead")
	}
	// paper Fig. 6: inference dominates service overhead by orders of
	// magnitude for a real model
	if tm.InferTime() < 10*tm.ServiceTime() {
		t.Fatalf("inference (%v) does not dominate service (%v)", tm.InferTime(), tm.ServiceTime())
	}
}

// TestNoopInferenceNearZero: the NOOP model replies without inferring, so its
// inference time is none at all.
func TestNoopInferenceNearZero(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "noop", 1, clock)
	start(t, s)
	if it := submitAll(t, clock, s, 1, 0)[0].InferTime(); it != 0 {
		t.Fatalf("noop inference time = %v (sim), want 0", it)
	}
}

// TestSingleThreadedQueueing: the paper's single-threaded service. Four
// requests arriving together are served back to back: each is dequeued the
// instant the one before it is replied to, so the last queues for the other
// three.
func TestSingleThreadedQueueing(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "llama-8b", 1, clock)
	start(t, s)
	timings := submitAll(t, clock, s, 4, 64)
	slices.SortFunc(timings, func(a, b proto.Timing) int { return a.DequeuedAt.Compare(b.DequeuedAt) })
	arrived := timings[0].ReceivedAt
	for i, tm := range timings {
		want := arrived
		if i > 0 {
			want = timings[i-1].RepliedAt
		}
		if !tm.ReceivedAt.Equal(arrived) || !tm.DequeuedAt.Equal(want) {
			t.Fatalf("request %d received %v, dequeued %v; want %v, %v", i, tm.ReceivedAt, tm.DequeuedAt, arrived, want)
		}
	}
}

// TestConcurrentWorkersReduceQueueing: the same four requests on four workers
// never queue; on one they queue for every reply before their own.
func TestConcurrentWorkersReduceQueueing(t *testing.T) {
	queued := func(concurrency int) time.Duration {
		clock := simtime.NewVirtualAuto(origin)
		s := newServerOn(t, "llama-8b", concurrency, clock)
		start(t, s)
		var total time.Duration
		for _, tm := range submitAll(t, clock, s, 4, 64) {
			total += tm.QueueTime()
		}
		return total
	}
	if serial, parallel := queued(1), queued(4); parallel != 0 || serial == 0 {
		t.Fatalf("4 workers queued %v, single worker %v — want none and some", parallel, serial)
	}
}

func TestQueueFull(t *testing.T) {
	spec, _ := llm.Lookup("llama-8b")
	clock := simtime.NewVirtualAuto(origin)
	src := rng.New(1)
	s, err := New(Config{
		UID:      "svc",
		Backend:  LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("m"))},
		Clock:    clock,
		Src:      src.Derive("s"),
		QueueCap: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start(t, s)
	defer s.Stop()
	// Eight requests at one instant: 1 executing + 1 queued, and the other
	// six find the queue full.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(8)
	clock.AddRunner() // the spawner holds the clock until every request is out
	for i := 0; i < 8; i++ {
		clock.Go(func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), req("r", "p", 512))
			errs <- err
		})
	}
	clock.DoneRunner()
	wg.Wait()
	close(errs)
	full := 0
	for err := range errs {
		if errors.Is(err, ErrQueueFull) {
			full++
		}
	}
	if full != 6 {
		t.Fatalf("%d requests rejected with ErrQueueFull, want 6", full)
	}
}

func TestHandlerRoundTrip(t *testing.T) {
	s := newServer(t, "noop", 1)
	start(t, s)
	h := s.Handler()
	env, _ := proto.NewEnvelope(proto.KindRequest, 9, "task.0001", "service.0001", origin, req("r9", "x", 0))
	out := h(env)
	if out.Kind != proto.KindReply || out.ID != 9 {
		t.Fatalf("handler reply = %+v", out)
	}
	var rep proto.InferenceReply
	if err := out.Decode(proto.KindReply, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RequestUID != "r9" {
		t.Fatalf("reply body = %+v", rep)
	}
}

func TestHandlerBadRequest(t *testing.T) {
	s := newServer(t, "noop", 1)
	start(t, s)
	h := s.Handler()
	env, _ := proto.NewEnvelope(proto.KindStateUpdate, 1, "x", "y", origin, proto.StateUpdate{})
	out := h(env)
	if out.Kind != proto.KindReply || out.ID != 1 {
		t.Fatalf("handler answered a wrong-kind request with %+v", out)
	}
	rep, err := out.DecodeReply()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Err, ErrBadRequest.Error()) {
		t.Fatalf("reply to a wrong-kind request has Err %q, want it to contain %q", rep.Err, ErrBadRequest)
	}
}

func TestHandlerErrorWhenNotReady(t *testing.T) {
	s := newServer(t, "noop", 1)
	h := s.Handler()
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "x", "y", origin, req("r", "p", 0))
	out := h(env)
	if out.Kind != proto.KindReply || out.ID != 1 {
		t.Fatalf("handler answered a request before Start with %+v", out)
	}
	rep, err := out.DecodeReply()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != ErrNotReady.Error() || rep.RequestUID != "r" {
		t.Fatalf("reply before Start = %+v, want request r with Err %q", rep, ErrNotReady)
	}
}

func TestDrainFinishesQueue(t *testing.T) {
	s := newServer(t, "llama-8b", 1)
	clock := vclock(s)
	start(t, s)
	const n = 3
	var wg sync.WaitGroup
	ok := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), req("r", "p", 32)); err == nil {
				ok <- struct{}{}
			}
		})
	}
	clock.Settle() // one request in service, two queued
	if q, f := s.Queued(), s.InFlight(); q != 2 || f != 1 {
		t.Fatalf("before the drain: %d queued, %d in flight, want 2 and 1", q, f)
	}
	s.Drain()
	offClock(clock, wg.Wait)
	if len(ok) != n {
		t.Fatalf("%d/%d queued requests served across drain", len(ok), n)
	}
	if _, err := s.Submit(context.Background(), req("r", "p", 32)); err == nil {
		t.Fatal("Submit accepted after Drain")
	}
	s.Drain() // idempotent
}

// TestStopFlushesQueueWithErrors: Stop fails the five requests still queued
// and lets the one in service finish.
func TestStopFlushesQueueWithErrors(t *testing.T) {
	s := newServer(t, "llama-8b", 1)
	clock := vclock(s)
	start(t, s)
	var wg sync.WaitGroup
	results := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			reply, err := s.Submit(context.Background(), req("r", "p", 2048))
			if err == nil && reply.Err != "" {
				err = errors.New(reply.Err)
			}
			results <- err
		})
	}
	clock.Settle() // one request in service, five queued
	s.Stop()
	s.Stop() // idempotent
	offClock(clock, wg.Wait)
	close(results)
	var failed int
	for err := range results {
		if err != nil {
			failed++
		}
	}
	if failed != 5 {
		t.Fatalf("%d of 6 requests failed, want the 5 Stop found queued", failed)
	}
	if _, err := s.Submit(context.Background(), req("r", "p", 1)); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
}

// TestSubmitContextCancellation: a request whose ctx ends while it is queued
// returns the ctx's error. The clock is held meanwhile (a registered goroutine
// parked on a plain channel), so the request in service cannot finish first.
func TestSubmitContextCancellation(t *testing.T) {
	s := newServer(t, "llama-8b", 1)
	clock := vclock(s)
	start(t, s)
	var wg sync.WaitGroup
	wg.Add(2)
	clock.Go(func() { // occupies the single worker
		defer wg.Done()
		s.Submit(context.Background(), req("long", "p", 2048)) //nolint:errcheck
	})
	clock.Settle()
	hold := make(chan struct{})
	clock.Go(func() { defer wg.Done(); <-hold })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Submit(ctx, req("r", "p", 2048))
	close(hold)
	offClock(clock, wg.Wait)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestQueueDepthTracksLoad(t *testing.T) {
	s := newServer(t, "llama-8b", 1)
	clock := vclock(s)
	start(t, s)
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("idle depth = %d", d)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			s.Submit(context.Background(), req("r", "p", 2048)) //nolint:errcheck
		})
	}
	clock.Settle()
	if d := s.QueueDepth(); d != 3 {
		t.Fatalf("depth under load = %d, want 3", d)
	}
	offClock(clock, wg.Wait)
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("depth after drain = %d", d)
	}
}

func TestStartAfterStop(t *testing.T) {
	s := newServer(t, "noop", 1)
	s.Stop()
	if _, err := s.Start(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Stop = %v, want ErrStopped", err)
	}
}

// TestRequestUIDIsALabel: two requests that share a request UID are each
// executed, and each reply answers its own prompt, whether the request is
// submitted on a plain or on a cancellable ctx.
func TestRequestUIDIsALabel(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"plain", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }},
		{"cancellable", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, "llama-8b", 1)
			start(t, s)
			submit := func(prompt string, maxTokens int) proto.InferenceReply {
				t.Helper()
				ctx, cancel := tc.ctx()
				defer cancel()
				reply, err := s.Submit(ctx, req("same-1", prompt, maxTokens))
				if err != nil {
					t.Fatal(err)
				}
				return reply
			}
			first := submit("what genes respond to radiation", 64)
			second := submit("summarize", 4)
			if first.RequestUID != "same-1" || second.RequestUID != "same-1" {
				t.Fatalf("request UIDs %q and %q, want both echoed as same-1", first.RequestUID, second.RequestUID)
			}
			if first.OutputTokens <= 4 {
				t.Fatalf("first reply: %d output tokens, want more than the second's limit of 4", first.OutputTokens)
			}
			if second.OutputTokens < 1 || second.OutputTokens > 4 || second.Words() == first.Words() {
				t.Fatalf("second reply: %d tokens %q, want its own of at most 4 (first: %d tokens %q)",
					second.OutputTokens, second.Words(), first.OutputTokens, first.Words())
			}
			if s.Processed() != 2 || s.Deduped() != 0 {
				t.Fatalf("processed=%d deduped=%d, want 2 and 0", s.Processed(), s.Deduped())
			}
		})
	}
}

// --- Continuous batching (PR 8) ----------------------------------------------

// recordingBackend is a Backend that records every batch it serves.
// The entered/gate channels let tests hold the worker mid-inference so
// the queue contents at the next dequeue are exactly known.
type recordingBackend struct {
	entered chan struct{} // one signal per InferBatch entry (after recording)
	gate    chan struct{} // each InferBatch waits for one token before returning

	mu      sync.Mutex
	batches [][]llm.BatchItem
}

func (b *recordingBackend) Name() string        { return "rec" }
func (b *recordingBackend) Load() time.Duration { return 0 }

func (b *recordingBackend) Infer(prompt string, maxTokens int) llm.Result {
	items := []llm.BatchItem{{Prompt: prompt, MaxTokens: maxTokens}}
	b.InferBatch(items)
	return items[0].Result
}

func (b *recordingBackend) InferBatch(items []llm.BatchItem) time.Duration {
	b.mu.Lock()
	b.batches = append(b.batches, append([]llm.BatchItem(nil), items...))
	b.mu.Unlock()
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.gate != nil {
		<-b.gate
	}
	for i := range items {
		items[i].Result = llm.Result{}
	}
	return 0
}

func (b *recordingBackend) recorded() [][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]string, len(b.batches))
	for i, batch := range b.batches {
		for _, it := range batch {
			out[i] = append(out[i], it.Prompt)
		}
	}
	return out
}

func newBatchServer(t *testing.T, b Backend, maxBatch int) *Server {
	t.Helper()
	s, err := New(Config{
		UID:         "service.0001",
		Backend:     b,
		Clock:       simtime.NewVirtualAuto(origin),
		Src:         rng.New(42),
		Concurrency: 1,
		MaxBatch:    maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// plugAndQueue occupies the single worker with a plug request (direct
// handoff: always a batch of one) and then queues reqs in order, using
// the Queued gauge to serialize the concurrent submits. The submitters are
// registered with the clock; a backend held at its gate holds the clock too.
func plugAndQueue(t *testing.T, s *Server, b *recordingBackend, wg *sync.WaitGroup, reqs []proto.InferenceRequest) {
	t.Helper()
	submit := func(r proto.InferenceRequest) {
		wg.Add(1)
		vclock(s).Go(func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), r); err != nil {
				t.Error(err)
			}
		})
	}
	submit(req("plug", "plug", 1))
	<-b.entered // worker holds the plug batch until the test releases it
	for i, r := range reqs {
		submit(r)
		waitQueued(t, s, i+1)
	}
}

func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, s.Queued())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// drainBatches releases the gated backend until every submitted request
// has been served, consuming one entered signal per subsequent batch.
func drainBatches(t *testing.T, b *recordingBackend, wg *sync.WaitGroup, more int) {
	t.Helper()
	b.gate <- struct{}{} // release the plug
	for i := 0; i < more; i++ {
		<-b.entered
		b.gate <- struct{}{}
	}
	wg.Wait()
}

func batchReq(uid, model string) proto.InferenceRequest {
	r := req(uid, uid, 1)
	r.Model = model
	return r
}

// TestBatchFormationGroupsByModel: a dequeue takes the head plus every
// consecutive queued request for the same model, stopping at the first
// incompatible one — and picks the remainder up as later batches.
func TestBatchFormationGroupsByModel(t *testing.T) {
	b := &recordingBackend{entered: make(chan struct{}), gate: make(chan struct{})}
	s := newBatchServer(t, b, 4)
	start(t, s)
	defer s.Stop()
	var wg sync.WaitGroup
	plugAndQueue(t, s, b, &wg, []proto.InferenceRequest{
		batchReq("r0", "a"),
		batchReq("r1", "a"),
		batchReq("r2", "a"),
		batchReq("r3", "b"),
		batchReq("r4", "a"),
	})
	drainBatches(t, b, &wg, 3)
	want := [][]string{{"plug"}, {"r0", "r1", "r2"}, {"r3"}, {"r4"}}
	if got := b.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batches = %v, want %v", got, want)
	}
	if s.Processed() != 6 {
		t.Fatalf("Processed = %d, want 6", s.Processed())
	}
}

// TestBatchFormationHonorsMaxBatch: six compatible queued requests under
// MaxBatch 4 dequeue as a batch of four, then a batch of two.
func TestBatchFormationHonorsMaxBatch(t *testing.T) {
	b := &recordingBackend{entered: make(chan struct{}), gate: make(chan struct{})}
	s := newBatchServer(t, b, 4)
	start(t, s)
	defer s.Stop()
	var wg sync.WaitGroup
	var reqs []proto.InferenceRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, batchReq(fmt.Sprintf("r%d", i), "a"))
	}
	plugAndQueue(t, s, b, &wg, reqs)
	drainBatches(t, b, &wg, 2)
	want := [][]string{{"plug"}, {"r0", "r1", "r2", "r3"}, {"r4", "r5"}}
	if got := b.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batches = %v, want %v", got, want)
	}
}

// TestLoneRequestBatchOfOne: a request that never queues is a batch of
// one, so a MaxBatch 8 server and a MaxBatch 1 server built from the same
// seed reply identically — text, token counts and every Timing stamp.
func TestLoneRequestBatchOfOne(t *testing.T) {
	serve := func(maxBatch int) []proto.InferenceReply {
		clock := simtime.NewVirtualAuto(origin)
		spec, err := llm.Lookup("vit-base")
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(7)
		s, err := New(Config{
			UID:         "service.0001",
			Backend:     LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("model"))},
			Clock:       clock,
			Src:         src.Derive("server"),
			Concurrency: 1,
			MaxBatch:    maxBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		start(t, s)
		t.Cleanup(s.Stop)
		replies := make([]proto.InferenceReply, 4)
		done := make(chan struct{})
		clock.Go(func() {
			defer close(done)
			for i := range replies {
				reply, err := s.Submit(context.Background(), req(fmt.Sprintf("r%d", i), "classify", 64))
				if err != nil {
					t.Error(err)
				}
				replies[i] = reply
			}
		})
		<-done
		return replies
	}
	single, batching := serve(1), serve(8)
	for i, r := range single {
		if r.Timing.QueueTime() != 0 || r.OutputTokens == 0 || r.Timing.InferTime() == 0 {
			t.Fatalf("request %d: queued %v, %d tokens in %v", i, r.Timing.QueueTime(), r.OutputTokens, r.Timing.InferTime())
		}
		b := batching[i]
		if r.Words() != b.Words() || r.PromptTokens != b.PromptTokens || r.OutputTokens != b.OutputTokens || r.Timing != b.Timing {
			t.Fatalf("request %d: MaxBatch 1 %+v\nMaxBatch 8 %+v", i, r, b)
		}
	}
}

// TestCancellationDeterministicOnVirtualClock pins the reply hand-off's
// cancellation determinism: on an auto-advancing virtual
// clock, a plug inference occupies the single worker while ten requests
// queue behind it; half carry contexts canceled at 10ms of virtual time
// — far inside the plug's ~1s inference, so exactly those five abandon
// — and half run to completion. Counts are exact, the worker still
// executes abandoned jobs (abandonment is client-side), and two runs
// finish at the identical virtual instant.
func TestCancellationDeterministicOnVirtualClock(t *testing.T) {
	run := func() (completed, canceled int64, end time.Time) {
		clock := simtime.NewVirtualAuto(origin)
		spec, err := llm.Lookup("vit-base")
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(7)
		s, err := New(Config{
			UID:         "service.0001",
			Backend:     LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("model"))},
			Clock:       clock,
			Src:         src.Derive("server"),
			Concurrency: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		var done, ctxErr atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			// ~1s inference (vit-base generates ~2000 tok/s).
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				if _, err := s.Submit(context.Background(), req("plug", "plug", 2048)); err == nil {
					done.Add(1)
				}
			})
			clock.Sleep(time.Millisecond) // the plug is in flight now
			for i := 0; i < 10; i++ {
				r := req(fmt.Sprintf("r%d", i), "payload", 8)
				cancelable := i%2 == 1
				ctx, cancel := context.WithCancel(context.Background())
				var ret chan struct{}
				if cancelable {
					ret = make(chan struct{}, 1)
					retOut := ret
					wg.Add(1)
					clock.Go(func() {
						defer wg.Done()
						clock.Sleep(10 * time.Millisecond)
						cancel()
						// Hold the clock (registered, parked on a plain
						// channel) until the abandonment commits, so
						// virtual time cannot jump to the plug's end and
						// let the reply win the hand-off race.
						<-retOut
					})
				}
				wg.Add(1)
				clock.Go(func() {
					defer wg.Done()
					defer cancel() // idempotent; releases the non-cancelable contexts
					_, err := s.Submit(ctx, r)
					if ret != nil {
						ret <- struct{}{}
					}
					switch {
					case err == nil:
						done.Add(1)
					case errors.Is(err, context.Canceled):
						ctxErr.Add(1)
					default:
						t.Errorf("unexpected error: %v", err)
					}
				})
			}
		})
		wg.Wait()
		// The worker finishes the abandoned leftovers. Drain parks on the
		// clock's books, so its caller holds a runner while it waits.
		clock.AddRunner()
		s.Drain()
		clock.DoneRunner()
		return done.Load(), ctxErr.Load(), clock.Now()
	}
	c1, x1, e1 := run()
	c2, x2, e2 := run()
	if c1 != 6 || x1 != 5 {
		t.Fatalf("run 1: completed=%d canceled=%d, want 6/5", c1, x1)
	}
	if c2 != c1 || x2 != x1 {
		t.Fatalf("runs disagree: %d/%d vs %d/%d", c1, x1, c2, x2)
	}
	if !e1.Equal(e2) {
		t.Fatalf("virtual end times diverge: %v vs %v", e1, e2)
	}
}

// TestSubmitWaitsAgree: a context that can never be cancelled waits for its
// reply with a plain receive, a cancellable one in a select beside its Done;
// and a request of the first kind that finds the worker parked is served by
// its caller, where one of the second kind is handed to the worker. On the
// virtual clock each of two request streams, one queued and batched and one
// that always finds the server idle, gets the same replies and Timing stamps
// either way.
func TestSubmitWaitsAgree(t *testing.T) {
	run := func(ctx context.Context, spacing time.Duration) []proto.InferenceReply {
		clock := simtime.NewVirtualAuto(origin)
		spec, err := llm.Lookup("vit-base")
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(7)
		s, err := New(Config{
			UID:         "service.0001",
			Backend:     LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("model"))},
			Clock:       clock,
			Src:         src.Derive("server"),
			Concurrency: 1,
			MaxBatch:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		start(t, s)
		replies := make([]proto.InferenceReply, 24)
		done := make(chan struct{}, len(replies))
		clock.AddRunner() // the spawner holds the clock until every request is out
		for i := range replies {
			clock.Go(func() {
				defer func() { done <- struct{}{} }()
				// One arrival an instant: two at once would enqueue in either order.
				clock.Sleep(time.Duration(1+i) * spacing)
				reply, err := s.Submit(ctx, req(fmt.Sprintf("r%d", i), "prompt", 8+i))
				if err != nil {
					t.Error(err)
				}
				replies[i] = reply
			})
		}
		clock.DoneRunner()
		awaitN(t, clock, done, len(replies))
		return replies
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The queued stream's arrivals come faster than the worker serves them;
	// the idle stream's come further apart than one service time (at most
	// ~20 ms here), so every request finds the worker parked.
	for _, spacing := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
		plain, selecting := run(context.Background(), spacing), run(ctx, spacing)
		for i := range plain {
			if !reflect.DeepEqual(plain[i], selecting[i]) {
				t.Fatalf("spacing %v, request %d: plain receive got\n%+v\nselect got\n%+v", spacing, i, plain[i], selecting[i])
			}
		}
		batches := map[time.Time]bool{}
		var queued int
		for _, r := range plain {
			batches[r.Timing.DequeuedAt] = true
			if r.Timing.QueueTime() > 0 {
				queued++
			}
		}
		idle := spacing > time.Millisecond
		switch {
		case idle && queued > 0:
			t.Fatalf("the idle stream queued %d of %d requests", queued, len(plain))
		case !idle && (plain[len(plain)-1].Timing.QueueTime() <= 0 || len(batches) >= len(plain)):
			t.Fatalf("the stream did not queue and batch: last request queued %v, %d batches for %d requests",
				plain[len(plain)-1].Timing.QueueTime(), len(batches), len(plain))
		}
	}
}

// awaitN receives n signals from done, failing the test once that has
// taken 3 s of wall time: on a virtual clock, a wait the clock cannot see
// freezes it, and whatever was due later never comes.
func awaitN(t *testing.T, clock *simtime.Virtual, done <-chan struct{}, n int) {
	t.Helper()
	guard := time.After(3 * time.Second)
	for range n {
		select {
		case <-done:
		case <-guard:
			t.Fatalf("still waiting after 3 s of wall time, clock at +%v", clock.Now().Sub(origin))
		}
	}
}

// TestDrainWhileExecutingOnVirtualClock: a Drain called while a ~0.5 s
// request is in service waits for it through the clock, so it returns at
// the instant that request is replied to, whether a worker serves it (a
// cancellable ctx) or its caller does, in the idle worker's place.
func TestDrainWhileExecutingOnVirtualClock(t *testing.T) {
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"worker", cancellable}, {"inline", context.Background()}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := simtime.NewVirtualAuto(origin)
			s := newServerOn(t, "vit-base", 1, clock)
			start(t, s)
			var reply proto.InferenceReply
			var drained time.Time
			done := make(chan struct{}, 2)
			clock.AddRunner() // the spawner holds the clock until both are out
			clock.Go(func() {
				defer func() { done <- struct{}{} }()
				var err error
				if reply, err = s.Submit(tc.ctx, req("long", "p", 2048)); err != nil { // ~0.5 s in service
					t.Error(err)
				}
			})
			clock.Go(func() {
				defer func() { done <- struct{}{} }()
				clock.Sleep(time.Millisecond)
				s.Drain()
				drained = clock.Now()
			})
			clock.DoneRunner()
			awaitN(t, clock, done, 2)
			tm := reply.Timing
			if tm.RepliedAt.Sub(tm.ReceivedAt) < 100*time.Millisecond || !drained.Equal(tm.RepliedAt) {
				t.Fatalf("Drain returned at +%v; the request was received at +%v and replied to at +%v",
					drained.Sub(origin), tm.ReceivedAt.Sub(origin), tm.RepliedAt.Sub(origin))
			}
		})
	}
}

// TestSubmitDuringInlineServeQueues: while a caller serves its request in
// the only worker's place, a second request finds no worker parked and
// queues; giving the place back wakes the worker, which takes it up at the
// first request's RepliedAt.
func TestSubmitDuringInlineServeQueues(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "vit-base", 1, clock)
	start(t, s)
	var first, second proto.InferenceReply
	done := make(chan struct{}, 2)
	submit := func(reply *proto.InferenceReply, after time.Duration, maxTokens int) {
		clock.Go(func() {
			defer func() { done <- struct{}{} }()
			clock.Sleep(after)
			var err error
			if *reply, err = s.Submit(context.Background(), req(fmt.Sprint(after), "p", maxTokens)); err != nil {
				t.Error(err)
			}
		})
	}
	clock.AddRunner() // the spawner holds the clock until both are out
	submit(&first, time.Millisecond, 2048)
	submit(&second, 2*time.Millisecond, 8)
	clock.DoneRunner()
	awaitN(t, clock, done, 2)
	if first.Timing.QueueTime() != 0 || second.Timing.QueueTime() <= 0 ||
		!second.Timing.DequeuedAt.Equal(first.Timing.RepliedAt) {
		t.Fatalf("first %+v\nsecond %+v: the second should queue until the first is replied to", first.Timing, second.Timing)
	}
}

// TestInlineServeVsStopSingleWinnerRace: a Stop races a request that finds the
// worker parked, so that its caller serves it. By the clock the Stop lands
// at the request's own instant (a race in wall time), inside its serve or
// after it. The caller gets either the whole reply or ErrStopped, never an
// error reply, and the worker exits: Stop wakes it when it is in waiters,
// and the caller's giveBack when the caller holds its place.
func TestInlineServeVsStopSingleWinnerRace(t *testing.T) {
	var refused, during, after int
	for round := range 240 {
		clock := simtime.NewVirtualAuto(origin)
		s := newServerOn(t, "vit-base", 1, clock) // 8 tokens: 1–3 ms in service
		start(t, s)
		parked, gun := make(chan struct{}), make(chan struct{})
		done := make(chan struct{}, 2)
		var reply proto.InferenceReply
		var err error
		var stoppedAt time.Time
		clock.Go(func() {
			defer func() { done <- struct{}{} }()
			clock.Settle() // the worker is parked
			close(parked)
			<-gun
			reply, err = s.Submit(context.Background(), req("r", "p", 8))
		})
		<-parked
		stop := func() {
			defer func() { done <- struct{}{} }()
			<-gun
			clock.Sleep([]time.Duration{0, time.Millisecond, 5 * time.Millisecond}[round%3])
			s.Stop()
			stoppedAt = clock.Now()
		}
		if round%2 == 0 {
			clock.Go(stop)
			close(gun)
		} else {
			close(gun) // the submitter gets a head start
			clock.Go(stop)
		}
		awaitN(t, clock, done, 2)
		switch {
		case errors.Is(err, ErrStopped):
			refused++
		case err != nil || reply.Err != "" || reply.Model != "vit-base" || reply.OutputTokens == 0:
			t.Fatalf("round %d: reply %+v, err %v", round, reply, err)
		case stoppedAt.Before(reply.Timing.RepliedAt):
			during++
		default:
			after++
		}
		s.mu.Lock()
		exited := s.exited.Done()
		s.mu.Unlock()
		select {
		case <-exited:
		case <-time.After(3 * time.Second):
			t.Fatalf("round %d: the worker had not exited 3 s after Stop", round)
		}
	}
	t.Logf("refused %d, stopped during the serve %d, after it %d", refused, during, after)
}

// TestQueuedReplyRidesItsHop: a caller that lends the reply hop (as msgq's
// in-process client does on a virtual clock) and whose request queues
// resumes at the reply's RepliedAt plus its own hop sample exactly, drawn
// by the worker at RepliedAt; the reply is sent at RepliedAt. The worker
// turns to the next job at once, sleeping no hop, and one timed delivery
// fires per queued request. A request served inline, in the parked
// worker's place, returns at RepliedAt with the hop still lent, for the
// caller to pay.
func TestQueuedReplyRidesItsHop(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "vit-base", 1, clock)
	start(t, s)
	h := s.Handler()
	type call struct {
		hop                 time.Duration
		drawnAt, woke, sent time.Time
		reply               proto.InferenceReply
		lent                bool
	}
	calls := make([]call, 3)
	done := make(chan struct{}, len(calls))
	clock.AddRunner() // the spawner holds the clock until every request is out
	for i := range calls {
		c := &calls[i]
		c.hop = time.Millisecond + time.Duration(i)*7*time.Microsecond
		clock.Go(func() {
			defer func() { done <- struct{}{} }()
			env := proto.NewRequest(uint64(i), "client.0", "service.0001", req(fmt.Sprint(i), "p", 8))
			env.LendHop(func() time.Duration {
				c.drawnAt = clock.Now()
				return c.hop
			})
			out := h(env)
			c.woke, c.sent = clock.Now(), out.Sent
			c.reply, _ = out.DecodeReply()
			c.lent = env.TakeHop() != nil
			out.Release()
		})
	}
	clock.DoneRunner()
	awaitN(t, clock, done, len(calls))

	var queued []call
	for i, c := range calls {
		replied := c.reply.Timing.RepliedAt
		if c.reply.Err != "" || !c.sent.Equal(replied) {
			t.Fatalf("call %d: reply %+v sent at %v, want a reply sent at its RepliedAt", i, c.reply, c.sent)
		}
		if c.lent {
			if c.reply.Timing.QueueTime() != 0 || !c.woke.Equal(replied) || !c.drawnAt.IsZero() {
				t.Fatalf("call %d kept its hop: queued %v, woke %v after RepliedAt, drawn at %v; want served inline, back at RepliedAt, undrawn",
					i, c.reply.Timing.QueueTime(), c.woke.Sub(replied), c.drawnAt)
			}
			continue
		}
		if !c.drawnAt.Equal(replied) || !c.woke.Equal(replied.Add(c.hop)) {
			t.Fatalf("call %d: hop drawn %v after RepliedAt, caller woke %v after it; want 0 and its sample %v",
				i, c.drawnAt.Sub(replied), c.woke.Sub(replied), c.hop)
		}
		queued = append(queued, c)
	}
	if len(queued) != 2 {
		t.Fatalf("%d requests queued, want 2 (the first at the instant is served inline)", len(queued))
	}
	slices.SortFunc(queued, func(a, b call) int { return a.reply.Timing.DequeuedAt.Compare(b.reply.Timing.DequeuedAt) })
	if !queued[1].reply.Timing.DequeuedAt.Equal(queued[0].reply.Timing.RepliedAt) {
		t.Fatalf("the worker took up the next job %v after it replied, want at once",
			queued[1].reply.Timing.DequeuedAt.Sub(queued[0].reply.Timing.RepliedAt))
	}
	if _, _, _, _, delivered := clock.Parks(); delivered != 2 {
		t.Fatalf("%d timed deliveries, want one per queued request", delivered)
	}
}

// TestInprocRoundTripPaysEachHopOnce: over msgq's in-process transport on
// a virtual clock, every caller resumes one link delay after its reply's
// RepliedAt: a queued request's through the worker's timed hand-off, and
// the one served inline through the hop msgq still sleeps on its caller.
func TestInprocRoundTripPaysEachHopOnce(t *testing.T) {
	const link = 70 * time.Microsecond
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "vit-base", 1, clock)
	start(t, s)
	net := msgq.NewNetwork(clock, rng.New(5), func(_, _ string) rng.DurationDist { return rng.ConstDuration(link) })
	defer net.Close()
	bind, err := net.Bind("service.0001", s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := net.Dial("client.0", bind.Addr())
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		woke  time.Time
		reply proto.InferenceReply
	}
	calls := make([]call, 3)
	done := make(chan struct{}, len(calls))
	sent := clock.Now() // after the model's load
	clock.AddRunner()   // the spawner holds the clock until every request is out
	for i := range calls {
		c := &calls[i]
		clock.Go(func() {
			defer func() { done <- struct{}{} }()
			env := proto.NewRequest(uint64(i), "client.0", "service.0001", req(fmt.Sprint(i), "p", 8))
			out, err := cl.Request(context.Background(), env)
			if err != nil {
				t.Error(err)
				return
			}
			c.woke = clock.Now()
			c.reply, _ = out.DecodeReply()
			out.Release()
		})
	}
	clock.DoneRunner()
	awaitN(t, clock, done, len(calls))
	inline := 0
	for i, c := range calls {
		tm := c.reply.Timing
		if !tm.ReceivedAt.Equal(sent.Add(link)) || !c.woke.Equal(tm.RepliedAt.Add(link)) {
			t.Fatalf("call %d: received %v after the send, woke %v after RepliedAt; want %v each way",
				i, tm.ReceivedAt.Sub(sent), c.woke.Sub(tm.RepliedAt), link)
		}
		if tm.QueueTime() == 0 {
			inline++
		}
	}
	if _, _, _, _, delivered := clock.Parks(); inline != 1 || delivered != 2 {
		t.Fatalf("%d served inline and %d timed deliveries, want 1 and 2", inline, delivered)
	}
}

// TestFlushedRequestLendsItsHopBack: a queued request that a Stop flushes
// is not served, so its worker draws no hop and the handler leaves the hop
// lent again, for the caller to pay; the request served inline meanwhile
// never took it.
func TestFlushedRequestLendsItsHopBack(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	s := newServerOn(t, "vit-base", 1, clock)
	start(t, s)
	h := s.Handler()
	type call struct {
		reply proto.InferenceReply
		lent  bool
	}
	calls := make([]call, 2)
	done := make(chan struct{}, len(calls)+1)
	clock.AddRunner() // the spawner holds the clock until every goroutine is out
	for i := range calls {
		c := &calls[i]
		clock.Go(func() {
			defer func() { done <- struct{}{} }()
			env := proto.NewRequest(uint64(i), "client.0", "service.0001", req(fmt.Sprint(i), "p", 8))
			env.LendHop(func() time.Duration {
				t.Error("the hop of a request nobody served was drawn")
				return 0
			})
			out := h(env)
			c.reply, _ = out.DecodeReply()
			c.lent = env.TakeHop() != nil
			out.Release()
		})
	}
	clock.Go(func() {
		defer func() { done <- struct{}{} }()
		clock.Sleep(time.Microsecond) // inside the inline serve's parse overhead
		s.Stop()
	})
	clock.DoneRunner()
	awaitN(t, clock, done, len(calls)+1)
	flushed := 0
	for i, c := range calls {
		if !c.lent {
			t.Fatalf("call %d: the hop is not lent after the answer %+v", i, c.reply)
		}
		if c.reply.Err == ErrStopped.Error() {
			flushed++
		} else if c.reply.Err != "" {
			t.Fatalf("call %d: reply %+v", i, c.reply)
		}
	}
	if flushed != 1 {
		t.Fatalf("%d requests flushed, want the queued one", flushed)
	}
}
