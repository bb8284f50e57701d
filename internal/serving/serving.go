// Package serving implements the model server a runtime service wraps —
// the Go analogue of Ollama in the paper's prototype. A Server owns one
// model backend and accepts inference requests through a msgq handler.
// By default it matches the paper's stated simplification — "services are
// single-threaded, and, as such, they only handle one request at a time,
// queuing further incoming requests" — but lifting that simplification is
// the paper's declared future work, and this package implements it: a
// worker pool (Config.Concurrency) in which each worker, whenever it frees
// up, takes the queue head plus the queued requests right behind it for
// the same model, up to Config.MaxBatch, and serves them as one backend
// invocation (continuous batching). Batches are not fixed windows: each is
// sized by whatever happens to be queued at dequeue time, so an idle
// server serves a lone request with no added latency, and the paper's
// request-at-a-time service is simply MaxBatch 1 — every batch a batch of
// one. A lone request whose caller cannot give up is served by that caller,
// in the idle worker's place: the same batch of one, without waking the
// worker to serve it or the caller to take the reply.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Errors returned to clients in reply envelopes or by Start.
var (
	ErrNotReady   = errors.New("serving: server not ready")
	ErrDraining   = errors.New("serving: server draining")
	ErrQueueFull  = errors.New("serving: request queue full")
	ErrStopped    = errors.New("serving: server stopped")
	ErrBadRequest = errors.New("serving: malformed request")
)

// Backend is one servable capability.
type Backend interface {
	// Name returns the model name the backend serves.
	Name() string
	// Load blocks for the capability's initialization (model load).
	Load() time.Duration
	// Infer blocks for one inference and returns its result. The server
	// calls it for every batch of one.
	Infer(prompt string, maxTokens int) llm.Result
	// InferBatch serves several compatible requests in one model
	// invocation (continuous batching): it blocks for the whole batch and
	// returns one result per item, in order. Item by item it draws the
	// randomness Infer would, so a batch of one returns Infer's result.
	InferBatch(items []llm.BatchItem) []llm.Result
}

// LLMBackend adapts an llm.Instance to Backend.
type LLMBackend struct{ M *llm.Instance }

// Name implements Backend.
func (b LLMBackend) Name() string { return b.M.Spec().Name }

// Load implements Backend.
func (b LLMBackend) Load() time.Duration { return b.M.Load() }

// Infer implements Backend.
func (b LLMBackend) Infer(prompt string, maxTokens int) llm.Result {
	return b.M.Infer(prompt, maxTokens)
}

// InferBatch implements Backend via the llm batch cost model.
func (b LLMBackend) InferBatch(items []llm.BatchItem) []llm.Result {
	return b.M.InferBatch(items)
}

// Config parameterizes a Server.
type Config struct {
	// UID identifies the server (usually the owning service task UID).
	UID string
	// Backend is the capability to serve. Required.
	Backend Backend
	// Clock times every phase. Required.
	Clock simtime.Clock
	// Src samples service-side overheads. Required.
	Src *rng.Source
	// Concurrency bounds the batches in service at once: each is served
	// by a worker, or by a Submit caller that found a worker idle and
	// holds its place. Default 1 — the paper's single-threaded service.
	Concurrency int
	// QueueCap bounds the request queue. Default 4096.
	QueueCap int
	// MaxBatch bounds how many compatible queued requests (same model)
	// one worker coalesces into a single batched inference. Default 1 —
	// the paper's request-at-a-time service.
	MaxBatch int
	// ParseOverhead is the per-request deserialize/parse/serialize cost
	// (the paper's `service` RT component). Default ≈ 30µs ± 10µs of
	// modelled cost; at real-time clock scales the host's genuine
	// scheduling overhead adds to the measured span, landing the total in
	// the paper's sub-communication band.
	ParseOverhead rng.DurationDist
}

// Server is one model-serving process.
//
// The request queue is an explicit FIFO under s.mu rather than a Go
// channel. A worker with nothing to do parks on its own simtime.Handoff,
// listed in waiters, and a request that finds one parked goes straight to
// it. On a virtual clock the hand-off issues the worker's wake token before
// the job, so the clock cannot advance while a hand-off is in flight, and
// the token reaches exactly the worker it was issued for, which a shared
// channel cannot promise (any worker may steal the element).
//
// A Submit whose ctx can never end does not hand off to a parked worker:
// it takes the worker's hand-off out of waiters, serves its request as the
// worker would, and then gives the place back (giveBack). The worker stays
// parked throughout, so Concurrency still bounds the batches in service,
// and an idle request costs no goroutine wake-up. A request that must
// queue, or whose ctx can end, is handed off as above, so cancellation
// behaves the same on both paths.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     fifo[*job]                   // queued, not yet picked up by a worker
	waiters  fifo[*simtime.Handoff[*job]] // parked workers; each receives one job or nil
	qclosed  bool                         // no further jobs will be queued (Drain/Stop)
	started  bool
	ready    bool
	draining bool
	stopped  bool
	loadTime time.Duration
	live     int           // workers not yet exited
	exited   simtime.Latch // fired by the last worker to exit; Drain waits on it

	// queued counts requests admitted to the queue (or in handoff to a
	// worker) but not yet being served; inflight counts requests in
	// service, by a worker or by an inline caller. They are split so load signals can tell a fully-busy-
	// but-empty-queue replica from a backlogged one — the autoscaler and
	// balancer read Queued, liveness probes read InFlight.
	queued    atomic.Int64
	inflight  atomic.Int64
	processed atomic.Int64
	rejected  atomic.Int64
}

type job struct {
	req      proto.InferenceRequest
	received time.Time
	reply    proto.InferenceReply      // written by whoever serves the job
	done     simtime.Handoff[struct{}] // a worker's wake-up of the Submit caller once reply is written
}

// recycle resets the job and returns it to the pool. Callers must own the
// job outright: the reply has been read, the job never reached the queue,
// or the worker's Send found the caller gone.
func (j *job) recycle() {
	j.req, j.reply = proto.InferenceRequest{}, proto.InferenceReply{}
	jobPool.Put(j)
}

// jobPool recycles jobs and their reply hand-offs across requests. Every
// path returns its job: completed submissions recycle after receiving the
// reply, rejected ones before parking, and abandoned ones (ctx expiry)
// are recycled by the worker whose reply found the caller gone.
var jobPool = sync.Pool{
	New: func() any { return new(job) },
}

// New validates cfg and returns an unstarted Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serving: %s: nil backend", cfg.UID)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("serving: %s: nil clock", cfg.UID)
	}
	if cfg.Src == nil {
		return nil, fmt.Errorf("serving: %s: nil rng source", cfg.UID)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.ParseOverhead.IsZero() {
		cfg.ParseOverhead = rng.NormalDuration(30*time.Microsecond, 10*time.Microsecond)
	}
	return &Server{cfg: cfg}, nil
}

// UID returns the server's identifier.
func (s *Server) UID() string { return s.cfg.UID }

// Model returns the served model name.
func (s *Server) Model() string { return s.cfg.Backend.Name() }

// Start loads the backend (blocking for the model's init time) and starts
// the worker pool. It returns the load duration.
func (s *Server) Start() (time.Duration, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	if s.started {
		s.mu.Unlock()
		return 0, fmt.Errorf("serving: %s already started", s.cfg.UID)
	}
	s.started = true
	s.mu.Unlock()

	load := s.cfg.Backend.Load()

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return load, ErrStopped
	}
	s.ready = true
	s.loadTime = load
	s.live = s.cfg.Concurrency
	run := simtime.RunnersOf(s.cfg.Clock)
	for i := 0; i < s.cfg.Concurrency; i++ {
		// Register before spawn (the clock.Go rule): the runner token must
		// exist before Start returns, or the auto-advancing clock could move
		// time past workers the Go scheduler has not run yet — queued jobs
		// would then stall for a scheduler-dependent span of virtual time,
		// destroying both latency and determinism.
		run.Go(s.worker)
	}
	s.mu.Unlock()
	return load, nil
}

// Ready reports whether the server accepts requests.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready && !s.draining && !s.stopped
}

// LoadTime returns the measured backend load duration (0 before Start).
func (s *Server) LoadTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadTime
}

// Queued returns requests admitted but not yet picked up by a worker.
func (s *Server) Queued() int { return int(s.queued.Load()) }

// InFlight returns requests currently in service.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// QueueDepth returns queued plus executing requests — the compatibility
// sum of the Queued and InFlight gauges.
func (s *Server) QueueDepth() int { return int(s.queued.Load() + s.inflight.Load()) }

// Processed returns the number of completed requests.
func (s *Server) Processed() int64 { return s.processed.Load() }

// Rejected returns the number of rejected requests.
func (s *Server) Rejected() int64 { return s.rejected.Load() }

// Deduped returns 0: a server executes every request it accepts, and a
// request UID only labels its reply. Its only reader is bench/rpbench,
// which is why it remains.
func (s *Server) Deduped() int64 { return 0 }

// worker is one dispatcher loop: each time it frees up it takes whatever
// compatible requests are queued (up to MaxBatch) and serves them as one
// backend invocation — continuous batching, no forming windows and no
// added idle latency.
func (s *Server) worker() {
	buf := make([]*job, 0, s.cfg.MaxBatch)
	var park simtime.Handoff[*job]
	for {
		batch, ok := s.dequeue(buf[:0], &park)
		if !ok {
			return
		}
		buf = batch[:0]
		s.queued.Add(-int64(len(batch)))
		s.inflight.Add(int64(len(batch)))
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			// Immediate termination: flush dequeued jobs with error
			// replies so their Submit callers unblock.
			for _, j := range batch {
				s.flushStopped(j)
			}
		} else {
			s.serve(batch)
		}
		// A caller that gave up first refuses its wake-up, and the worker
		// recycles the job in its place.
		for _, j := range batch {
			if !j.done.Send(struct{}{}) {
				j.recycle()
			}
		}
	}
}

// flushStopped writes ErrStopped as the reply of a dequeued job of a
// stopped server. The caller has already moved the job's count from queued
// to inflight.
func (s *Server) flushStopped(j *job) {
	s.inflight.Add(-1)
	s.rejected.Add(1)
	j.reply = proto.InferenceReply{
		RequestUID: j.req.RequestUID,
		ServiceUID: s.cfg.UID,
		Err:        ErrStopped.Error(),
	}
}

// dequeue returns the next batch, appending into buf: the head of the
// queue plus every immediately following request for the same model, up
// to MaxBatch. It parks the worker when the queue is empty — a direct
// handoff then yields a batch of one, which is exactly continuous
// batching's idle behavior. Buffered jobs are drained even after qclosed
// (Drain semantics; Stop's flush happens in the worker loop), and false
// means the worker should exit. A parked worker is handed its job (or a
// nil close wakeup) directly by the waker under s.mu — see the Server doc
// comment. park is the worker's own hand-off: it is in s.waiters only while
// the worker is parked, and it carries exactly one value per park.
func (s *Server) dequeue(buf []*job, park *simtime.Handoff[*job]) ([]*job, bool) {
	for {
		s.mu.Lock()
		if s.jobs.len() > 0 {
			head := s.jobs.pop()
			buf = append(buf, head)
			for n := 1; n < s.cfg.MaxBatch && s.jobs.len() > 0 && s.jobs.at(0).req.Model == head.req.Model; n++ {
				buf = append(buf, s.jobs.pop())
			}
			s.mu.Unlock()
			return buf, true
		}
		if s.qclosed {
			if s.live--; s.live == 0 {
				s.exited.Fire()
			}
			s.mu.Unlock()
			return nil, false
		}
		park.Arm(s.cfg.Clock)
		s.waiters.push(park)
		s.mu.Unlock()
		if j, _ := park.Recv(context.Background()); j != nil {
			return append(buf, j), true
		}
		// nil wakeup: the queue closed while we were parked, or a caller
		// that served in our place left jobs queued; loop to look again
		// under the lock.
	}
}

// enqueueLocked hands j to a parked worker (direct hand-off) or appends it
// to the job buffer. It reports false when the buffer is at capacity.
// Callers hold s.mu.
func (s *Server) enqueueLocked(j *job) bool {
	if s.waiters.len() > 0 {
		s.waiters.pop().Send(j)
		return true
	}
	if s.jobs.len() >= s.cfg.QueueCap {
		return false
	}
	s.jobs.push(j)
	return true
}

// closeQueueLocked marks the queue closed and wakes every parked worker
// with a nil job. Callers hold s.mu.
func (s *Server) closeQueueLocked() {
	s.qclosed = true
	for s.waiters.len() > 0 {
		s.waiters.pop().Send(nil)
	}
}

// giveBack ends a Submit's inline serve: it returns the place of the parked
// worker whose hand-off idle is. A worker owed work (jobs queued meanwhile)
// or an exit (the queue closed) is woken with nil to look again; otherwise
// it goes back on waiters, as though it had never been taken.
func (s *Server) giveBack(idle *simtime.Handoff[*job]) {
	s.mu.Lock()
	if s.jobs.len() > 0 || s.qclosed {
		idle.Send(nil)
	} else {
		s.waiters.push(idle)
	}
	s.mu.Unlock()
}

// serve executes one batch as a single backend invocation — Infer for a
// batch of one, InferBatch otherwise — and writes every member's reply on
// its job. The per-request parse overhead is charged per member — batching
// amortizes model compute, not request deserialization — with the summed
// overhead split half before inference (request parsing) and half after
// (reply serialization), forming the `service` component. Batch members
// share the dequeue/infer/reply timestamps: they ride one forward pass.
func (s *Server) serve(batch []*job) {
	defer s.inflight.Add(-int64(len(batch)))
	clock := s.cfg.Clock
	dequeued := clock.Now()

	var overhead time.Duration
	for range batch {
		overhead += s.cfg.ParseOverhead.Sample(s.cfg.Src)
	}
	if overhead > 0 {
		clock.Sleep(overhead / 2)
	}

	inferStart := clock.Now()
	var results []llm.Result
	if len(batch) == 1 {
		results = []llm.Result{s.cfg.Backend.Infer(batch[0].req.Prompt, batch[0].req.MaxTokens)}
	} else {
		items := make([]llm.BatchItem, len(batch))
		for i, j := range batch {
			items[i] = llm.BatchItem{Prompt: j.req.Prompt, MaxTokens: j.req.MaxTokens}
		}
		results = s.cfg.Backend.InferBatch(items)
	}
	inferEnd := clock.Now()

	if overhead > 0 {
		clock.Sleep(overhead - overhead/2)
	}
	replied := clock.Now()

	for i, j := range batch {
		s.processed.Add(1)
		j.reply = proto.InferenceReply{
			RequestUID:   j.req.RequestUID,
			ServiceUID:   s.cfg.UID,
			Model:        s.cfg.Backend.Name(),
			Text:         results[i].Text,
			PromptTokens: results[i].PromptTokens,
			OutputTokens: results[i].OutputTokens,
			Timing: proto.Timing{
				ReceivedAt:   j.received,
				DequeuedAt:   dequeued,
				InferStartAt: inferStart,
				InferEndAt:   inferEnd,
				RepliedAt:    replied,
			},
		}
	}
}

// Submit enqueues one request and blocks until its reply (or ctx expiry).
// This is the synchronous request path a msgq handler invokes.
//
// The enqueue happens under s.mu, in the same critical section as the
// state check: Stop and Drain close the queue under the same lock, so an
// accepted request can never race the close. The caller then waits on the
// job's hand-off, parked on a virtual clock's books until the worker's
// reply wakes it. A caller that gives up on ctx leaves the job to the
// worker, whose reply finds it gone and recycles it; a reply that lands
// first wins, and the caller takes it instead of the ctx error. Either way
// cancellation is deterministic on the auto-advancing virtual clock.
//
// A caller whose ctx can never end and that finds a worker parked serves
// the request itself, in that worker's place (see Server). The state check
// doubles as the stopped check a worker makes after a dequeue: both hold
// s.mu. On a virtual clock the caller must be registered, as it must to
// wait.
func (s *Server) Submit(ctx context.Context, req proto.InferenceRequest) (proto.InferenceReply, error) {
	j := jobPool.Get().(*job)
	j.req = req
	j.received = s.cfg.Clock.Now()
	j.done.Arm(s.cfg.Clock)

	s.mu.Lock()
	var rejection error
	var idle *simtime.Handoff[*job] // the parked worker whose place the caller takes
	switch {
	case s.stopped:
		rejection = ErrStopped
	case s.draining:
		rejection = ErrDraining
	case !s.ready:
		rejection = ErrNotReady
	case ctx.Done() == nil && s.waiters.len() > 0:
		idle = s.waiters.pop()
		s.inflight.Add(1)
	case s.enqueueLocked(j):
		s.queued.Add(1)
	default:
		rejection = ErrQueueFull
	}
	s.mu.Unlock()

	if rejection != nil {
		s.rejected.Add(1)
		j.recycle()
		return proto.InferenceReply{}, rejection
	}
	if idle != nil {
		s.serve([]*job{j})
		s.giveBack(idle)
	} else if _, err := j.done.Recv(ctx); err != nil {
		return proto.InferenceReply{}, err
	}
	reply := j.reply
	j.recycle()
	return reply, nil
}

// Handler returns the msgq request handler exposing the server: it decodes
// KindRequest envelopes, submits them, and encodes replies. Malformed
// requests and server-side rejections come back as KindError envelopes.
func (s *Server) Handler() func(proto.Envelope) proto.Envelope {
	return func(env proto.Envelope) proto.Envelope {
		req, err := env.DecodeRequest()
		if err != nil {
			return s.errEnvelope(env, fmt.Sprintf("%v: %v", ErrBadRequest, err))
		}
		reply, err := s.Submit(context.Background(), req)
		if err != nil {
			return s.errEnvelope(env, err.Error())
		}
		out, err := proto.NewEnvelope(proto.KindReply, env.ID, s.cfg.UID, env.From, s.cfg.Clock.Now(), reply)
		if err != nil {
			return s.errEnvelope(env, err.Error())
		}
		return out
	}
}

func (s *Server) errEnvelope(req proto.Envelope, msg string) proto.Envelope {
	out, err := proto.NewEnvelope(proto.KindError, req.ID, s.cfg.UID, req.From, s.cfg.Clock.Now(),
		proto.ErrorBody{Origin: s.cfg.UID, Msg: msg})
	if err != nil {
		// ErrorBody is a plain struct; marshalling cannot fail.
		panic(err)
	}
	return out
}

// Drain stops accepting new requests and blocks until the queue empties
// and all workers finish, inline serves included. On a virtual clock the
// caller waits through the clock, so it must be registered.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.draining {
		return
	}
	s.draining = true
	if s.ready {
		s.closeQueueLocked() // under s.mu: serialized against Submit's enqueue
		// nil: the ctx never ends. Wait unlocks s.mu while it waits.
		_ = s.exited.Wait(context.Background(), s.cfg.Clock, &s.mu)
	}
	s.stopped = true
}

// Stop terminates immediately: queued but unserved requests receive
// ErrStopped replies; an already-executing inference finishes. Stop does
// not block.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	wasReady := s.ready && !s.draining
	s.stopped = true
	s.ready = false
	if wasReady {
		s.closeQueueLocked() // under s.mu: serialized against Submit's enqueue
	}
	s.mu.Unlock()
}
