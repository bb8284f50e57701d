// Package serving implements the model server a runtime service wraps —
// the Go analogue of Ollama in the paper's prototype. A Server owns one
// model backend and accepts inference requests through a msgq handler.
// By default it matches the paper's stated simplification — "services are
// single-threaded, and, as such, they only handle one request at a time,
// queuing further incoming requests" — but lifting that simplification is
// the paper's declared future work, and this package implements it: a
// worker pool (Config.Concurrency) feeds a continuous-batching dispatcher
// (Config.MaxBatch) that coalesces compatible queued requests into one
// batched backend invocation whenever a worker frees up. Batches are not
// fixed windows: each batch is sized by whatever happens to be queued at
// dequeue time, so an idle server still serves single requests with no
// added latency.
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
	// Infer blocks for one inference and returns its result.
	Infer(prompt string, maxTokens int) llm.Result
	// MemGB returns the accelerator memory footprint.
	MemGB() float64
}

// BatchBackend is optionally implemented by backends that can serve
// several compatible requests in one model invocation (continuous
// batching). InferBatch blocks for the whole batch and returns one result
// per item, in order. A batch of one must be indistinguishable from Infer
// — same randomness draws, same result bytes — so enabling batching never
// perturbs an unbatched workload.
type BatchBackend interface {
	Backend
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

// MemGB implements Backend.
func (b LLMBackend) MemGB() float64 { return b.M.Spec().MemGB }

// InferBatch implements BatchBackend via the llm batch cost model.
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
	// Concurrency is the number of worker goroutines. Default 1 — the
	// paper's single-threaded service.
	Concurrency int
	// QueueCap bounds the request queue. Default 4096.
	QueueCap int
	// MaxBatch bounds how many compatible queued requests (same model,
	// none flagged NoBatch) one worker coalesces into a single batched
	// inference. Effective only when Backend implements BatchBackend;
	// 0 or 1 disables batching (the paper's request-at-a-time service).
	MaxBatch int
	// ParseOverhead is the per-request deserialize/parse/serialize cost
	// (the paper's `service` RT component). Default ≈ 30µs ± 10µs of
	// modelled cost; at real-time clock scales the host's genuine
	// scheduling overhead adds to the measured span, landing the total in
	// the paper's sub-communication band.
	ParseOverhead rng.DurationDist
	// DedupWindow caps the number of completed request UIDs remembered for
	// idempotent redelivery: a request whose UID matches a remembered
	// completion is answered from the cache instead of re-executed, making
	// resolver park-and-retry safe for non-idempotent backends. 0 selects
	// DefaultDedupWindow; negative disables deduplication.
	//
	// Scope: the memory is per server instance. Retries that land on the
	// same surviving instance (lost reply, suspend/resume of its
	// registration) dedup; after a failover re-placement the replacement
	// starts with empty memory, so a request that completed on the dead
	// instance re-executes there — at-most-once per instance, not
	// exactly-once across instances. A retry racing a still-in-flight
	// first attempt also re-executes: only completions are remembered.
	DedupWindow int
}

// DefaultDedupWindow is the default completed-request memory size.
const DefaultDedupWindow = 1024

// Server is one model-serving process.
//
// The request queue is an explicit FIFO under s.mu with direct handoff to
// parked workers rather than a Go channel: when the server runs on a
// runnability-accounting clock (simtime.RunnersOf, i.e. an auto-advancing
// virtual clock), every park and wake must be told to the clock under the
// same critical section that moves the job, or the discrete-event loop
// could advance time while a handoff is still in flight. Direct handoff
// also guarantees a wake token is consumed by exactly the worker it was
// issued for, which a shared channel cannot (any worker may steal the
// element).
type Server struct {
	cfg Config
	// run is the clock's runnability accounting (nil on real/scaled
	// clocks, where parks and wakes need no bookkeeping).
	run simtime.Runners
	// batch is non-nil when batching is enabled (MaxBatch > 1 and the
	// backend implements BatchBackend); workers then dispatch through
	// dequeueBatch/serveBatch instead of the single-request path.
	batch BatchBackend

	mu       sync.Mutex
	jobs     []*job      // queued, not yet picked up by a worker
	waiters  []chan *job // parked workers, FIFO; each receives one job or nil
	qclosed  bool        // no further jobs will be queued (Drain/Stop)
	started  bool
	ready    bool
	draining bool
	stopped  bool
	loadTime time.Duration
	workers  sync.WaitGroup

	// queued counts requests admitted to the queue (or in handoff to a
	// worker) but not yet being served; inflight counts requests a worker
	// is executing. They are split so load signals can tell a fully-busy-
	// but-empty-queue replica from a backlogged one — the autoscaler and
	// balancer read Queued, liveness probes read InFlight.
	queued    atomic.Int64
	inflight  atomic.Int64
	processed atomic.Int64
	rejected  atomic.Int64
	deduped   atomic.Int64

	// dedupMu guards the completed-request memory (separate from s.mu:
	// remember() runs on the worker goroutine while Submit holds s.mu).
	// Replies live in a fixed-size FIFO ring and the map holds only ring
	// indices: a reply struct is too large for direct map storage, so a
	// map[string]reply would box every insert — and the round-trip alloc
	// budget is pinned by a benchmark.
	dedupMu   sync.Mutex
	dedupDone map[string]int
	dedupRing []dedupEntry
	dedupNext int
}

// dedupEntry is one remembered completion in the dedup ring.
type dedupEntry struct {
	uid   string
	reply proto.InferenceReply
}

// Drop-box states for job.state: the single-word handoff protocol between
// the worker's reply and a Submit caller abandoning the wait on ctx
// expiry. Exactly one side wins the CAS out of jobWaiting; the loser
// takes the cleanup duty the winner left behind (see reply and Submit).
const (
	jobWaiting   int32 = iota // Submit caller is (or will be) parked on done
	jobReplied                // worker committed the reply; wake token issued
	jobAbandoned              // caller left; worker recycles on reply
)

type job struct {
	req      proto.InferenceRequest
	received time.Time
	done     chan proto.InferenceReply
	state    atomic.Int32 // jobWaiting | jobReplied | jobAbandoned
}

// recycle resets the job and returns it to the pool. Callers must own the
// job outright: either the reply has been consumed, the job never reached
// the queue, or the worker observed jobAbandoned (so no send into done is
// outstanding or ever will be).
func (j *job) recycle() {
	j.req = proto.InferenceRequest{}
	j.state.Store(jobWaiting)
	jobPool.Put(j)
}

// jobPool recycles jobs and their reply channels across requests. Every
// path returns its job: completed submissions recycle after consuming the
// reply, rejected ones before parking, and abandoned ones (ctx expiry)
// are recycled by the worker when its reply hits the jobAbandoned
// drop-box state.
var jobPool = sync.Pool{
	New: func() any { return &job{done: make(chan proto.InferenceReply, 1)} },
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
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.ParseOverhead.IsZero() {
		cfg.ParseOverhead = rng.NormalDuration(30*time.Microsecond, 10*time.Microsecond)
	}
	if cfg.DedupWindow == 0 {
		cfg.DedupWindow = DefaultDedupWindow
	}
	s := &Server{cfg: cfg, run: simtime.RunnersOf(cfg.Clock)}
	if cfg.MaxBatch > 1 {
		if bb, ok := cfg.Backend.(BatchBackend); ok {
			s.batch = bb
		}
	}
	if cfg.DedupWindow > 0 {
		s.dedupDone = make(map[string]int, cfg.DedupWindow)
		s.dedupRing = make([]dedupEntry, cfg.DedupWindow)
	}
	return s, nil
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
	for i := 0; i < s.cfg.Concurrency; i++ {
		s.workers.Add(1)
		if s.run != nil {
			// Register before spawn (the clock.Go rule): the runner token
			// must exist before Start returns, or the auto-advancing clock
			// could move time past workers the Go scheduler has not run yet
			// — queued jobs would then stall for a scheduler-dependent span
			// of virtual time, destroying both latency and determinism.
			s.run.AddRunner()
		}
		go s.worker()
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

// InFlight returns requests currently being executed by workers.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// QueueDepth returns queued plus executing requests — the compatibility
// sum of the Queued and InFlight gauges.
func (s *Server) QueueDepth() int { return int(s.queued.Load() + s.inflight.Load()) }

// Processed returns the number of completed requests.
func (s *Server) Processed() int64 { return s.processed.Load() }

// Rejected returns the number of rejected requests.
func (s *Server) Rejected() int64 { return s.rejected.Load() }

// Deduped returns the number of requests answered from the completed-
// request memory instead of re-executed.
func (s *Server) Deduped() int64 { return s.deduped.Load() }

// lookupDedup returns the remembered reply for a completed request UID.
func (s *Server) lookupDedup(uid string) (proto.InferenceReply, bool) {
	if s.dedupDone == nil || uid == "" {
		return proto.InferenceReply{}, false
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if idx, ok := s.dedupDone[uid]; ok {
		return s.dedupRing[idx].reply, true
	}
	return proto.InferenceReply{}, false
}

// remember records a completed request for idempotent redelivery, evicting
// the oldest entry past the window.
func (s *Server) remember(uid string, reply proto.InferenceReply) {
	if s.dedupDone == nil || uid == "" {
		return
	}
	s.dedupMu.Lock()
	if idx, exists := s.dedupDone[uid]; exists {
		s.dedupRing[idx].reply = reply
	} else {
		slot := &s.dedupRing[s.dedupNext]
		if slot.uid != "" {
			delete(s.dedupDone, slot.uid)
		}
		slot.uid, slot.reply = uid, reply
		s.dedupDone[uid] = s.dedupNext
		s.dedupNext = (s.dedupNext + 1) % len(s.dedupRing)
	}
	s.dedupMu.Unlock()
}

func (s *Server) worker() {
	defer s.workers.Done()
	if s.run != nil {
		// The matching AddRunner ran in Start, before this goroutine was
		// spawned — see the register-before-spawn comment there.
		defer s.run.DoneRunner()
	}
	if s.batch != nil {
		s.batchWorker()
		return
	}
	park := make(chan *job, 1)
	for {
		j, ok := s.dequeue(park)
		if !ok {
			return
		}
		s.queued.Add(-1)
		s.inflight.Add(1)
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			// Immediate termination: flush queued jobs with error replies so
			// their Submit callers unblock.
			s.flushStopped(j)
			continue
		}
		s.serve(j)
	}
}

// batchWorker is the dispatcher loop of a batching server: each time the
// worker frees up it takes whatever compatible requests are queued (up to
// MaxBatch) and serves them as one backend invocation — continuous
// batching, no forming windows and no added idle latency.
func (s *Server) batchWorker() {
	buf := make([]*job, 0, s.cfg.MaxBatch)
	park := make(chan *job, 1)
	for {
		batch, ok := s.dequeueBatch(buf[:0], park)
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
			for _, j := range batch {
				s.flushStopped(j)
			}
			continue
		}
		s.serveBatch(batch)
	}
}

// flushStopped replies ErrStopped for a dequeued job of a stopped server.
// The caller has already moved the job's count from queued to inflight.
func (s *Server) flushStopped(j *job) {
	s.inflight.Add(-1)
	s.rejected.Add(1)
	s.reply(j, proto.InferenceReply{
		RequestUID: j.req.RequestUID,
		ServiceUID: s.cfg.UID,
		Err:        ErrStopped.Error(),
	})
}

// dequeue returns the next job, parking the worker when the queue is
// empty. Buffered jobs are drained even after qclosed (Drain semantics;
// Stop's flush happens in the worker loop), and false means the worker
// should exit. A parked worker is handed its job (or a nil close wakeup)
// directly by the waker, which also issues the runnability wake token
// under s.mu — see the Server doc comment. park is the worker's own
// one-slot channel: it is in s.waiters only while the worker is parked and
// receives exactly one value per park, so it is empty again on return.
func (s *Server) dequeue(park chan *job) (*job, bool) {
	for {
		s.mu.Lock()
		if len(s.jobs) > 0 {
			j := s.jobs[0]
			s.jobs = s.jobs[1:]
			s.mu.Unlock()
			return j, true
		}
		if s.qclosed {
			s.mu.Unlock()
			return nil, false
		}
		s.waiters = append(s.waiters, park)
		if s.run != nil {
			s.run.Block()
		}
		s.mu.Unlock()
		if j := <-park; j != nil {
			return j, true
		}
		// nil wakeup: the queue closed while we were parked; loop to
		// observe qclosed under the lock.
	}
}

// dequeueBatch returns the next batch of compatible jobs, appending into
// buf: the head of the queue plus every immediately following request for
// the same model that is not flagged NoBatch, up to MaxBatch. A NoBatch
// head forms a batch of one. Like dequeue, it parks the worker when the
// queue is empty — a direct handoff then yields a batch of one, which is
// exactly continuous batching's idle behavior.
func (s *Server) dequeueBatch(buf []*job, park chan *job) ([]*job, bool) {
	for {
		s.mu.Lock()
		if len(s.jobs) > 0 {
			n := 1
			head := s.jobs[0]
			if !head.req.NoBatch {
				for n < len(s.jobs) && n < s.cfg.MaxBatch &&
					!s.jobs[n].req.NoBatch && s.jobs[n].req.Model == head.req.Model {
					n++
				}
			}
			buf = append(buf, s.jobs[:n]...)
			s.jobs = s.jobs[n:]
			s.mu.Unlock()
			return buf, true
		}
		if s.qclosed {
			s.mu.Unlock()
			return nil, false
		}
		s.waiters = append(s.waiters, park)
		if s.run != nil {
			s.run.Block()
		}
		s.mu.Unlock()
		if j := <-park; j != nil {
			return append(buf, j), true
		}
		// nil wakeup: the queue closed while we were parked; loop to
		// observe qclosed under the lock.
	}
}

// enqueueLocked hands j to a parked worker (direct handoff, issuing the
// wake token) or appends it to the job buffer. It reports false when the
// buffer is at capacity. Callers hold s.mu.
func (s *Server) enqueueLocked(j *job) bool {
	if len(s.waiters) > 0 {
		ch := s.waiters[0]
		s.waiters = s.waiters[1:]
		if s.run != nil {
			s.run.Unblock() // wake token: issued before the wake itself
		}
		ch <- j
		return true
	}
	if len(s.jobs) >= s.cfg.QueueCap {
		return false
	}
	s.jobs = append(s.jobs, j)
	return true
}

// closeQueueLocked marks the queue closed and wakes every parked worker
// with a nil job. Callers hold s.mu.
func (s *Server) closeQueueLocked() {
	s.qclosed = true
	for _, ch := range s.waiters {
		if s.run != nil {
			s.run.Unblock()
		}
		ch <- nil
	}
	s.waiters = nil
}

// reply delivers the worker's single reply for j, issuing the requester's
// wake token first so a runnability-accounting clock cannot advance while
// the Submit caller's wakeup is in flight. If the Submit caller abandoned
// the wait (ctx expiry), the jobAbandoned drop-box state redirects the
// reply: the worker consumes it on the caller's behalf — recycling the
// job, issuing no wake token (nobody is parked) — so the runner
// accounting stays exact at every instant and cancellation is
// deterministic on the auto-advancing virtual clock.
func (s *Server) reply(j *job, r proto.InferenceReply) {
	if !j.state.CompareAndSwap(jobWaiting, jobReplied) {
		j.recycle()
		return
	}
	if s.run != nil {
		s.run.Unblock()
	}
	j.done <- r
}

func (s *Server) serve(j *job) {
	defer s.inflight.Add(-1)
	clock := s.cfg.Clock
	timing := proto.Timing{ReceivedAt: j.received, DequeuedAt: clock.Now()}

	// Parse/deserialize overhead — half before inference (request parsing),
	// half after (reply serialization), forming the `service` component.
	overhead := s.cfg.ParseOverhead.Sample(s.cfg.Src)
	if overhead > 0 {
		clock.Sleep(overhead / 2)
	}

	timing.InferStartAt = clock.Now()
	res := s.cfg.Backend.Infer(j.req.Prompt, j.req.MaxTokens)
	timing.InferEndAt = clock.Now()

	if overhead > 0 {
		clock.Sleep(overhead - overhead/2)
	}
	timing.RepliedAt = clock.Now()

	s.processed.Add(1)
	reply := proto.InferenceReply{
		RequestUID:   j.req.RequestUID,
		ServiceUID:   s.cfg.UID,
		Model:        s.cfg.Backend.Name(),
		Text:         res.Text,
		PromptTokens: res.PromptTokens,
		OutputTokens: res.OutputTokens,
		Timing:       timing,
	}
	s.remember(j.req.RequestUID, reply)
	s.reply(j, reply)
}

// serveBatch executes one coalesced batch as a single backend invocation
// and fans the results back out to every member's Submit caller. The
// per-request parse overhead is still charged — batching amortizes model
// compute, not request deserialization — with the summed overhead split
// half before inference (request parsing) and half after (reply
// serialization), mirroring the sequential path. Batch members share the
// dequeue/infer/reply timestamps: they ride one forward pass.
func (s *Server) serveBatch(batch []*job) {
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

	items := make([]llm.BatchItem, len(batch))
	for i, j := range batch {
		items[i] = llm.BatchItem{Prompt: j.req.Prompt, MaxTokens: j.req.MaxTokens}
	}
	inferStart := clock.Now()
	results := s.batch.InferBatch(items)
	inferEnd := clock.Now()

	if overhead > 0 {
		clock.Sleep(overhead - overhead/2)
	}
	replied := clock.Now()

	for i, j := range batch {
		s.processed.Add(1)
		reply := proto.InferenceReply{
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
		s.remember(j.req.RequestUID, reply)
		s.reply(j, reply)
	}
}

// Submit enqueues one request and blocks until its reply (or ctx expiry).
// This is the synchronous request path a msgq handler invokes.
//
// The enqueue happens under s.mu, in the same critical section as the
// state check: Stop and Drain close the queue under the same lock, so an
// accepted request can never race the close. On a runnability-accounting
// clock the caller parks as Block'd while it waits; the worker's reply
// carries the matching wake token. A caller that abandons the wait on ctx
// expiry settles accounts through the job's drop-box state: it rebalances
// its own Block with an Unblock the moment it leaves, and the worker's
// eventual reply — seeing jobAbandoned — recycles the job without issuing
// a token. Both sides stay exact at every instant, so cancellation is
// deterministic on the auto-advancing virtual clock. If the reply commits
// first (its token already in flight), the caller loses the CAS and takes
// the completed reply instead of the ctx error.
func (s *Server) Submit(ctx context.Context, req proto.InferenceRequest) (proto.InferenceReply, error) {
	j := jobPool.Get().(*job)
	j.req = req
	j.received = s.cfg.Clock.Now()

	s.mu.Lock()
	var rejection error
	switch {
	case s.stopped:
		rejection = ErrStopped
	case s.draining:
		rejection = ErrDraining
	case !s.ready:
		rejection = ErrNotReady
	}
	if rejection == nil {
		// Idempotent redelivery: a request UID already served to
		// completion is answered from memory — the client's first attempt
		// raced a failover or a lost reply, and re-executing it would
		// double-apply a non-idempotent backend. Checked after the state
		// gate so a stopped server still rejects everything.
		if reply, ok := s.lookupDedup(req.RequestUID); ok {
			s.mu.Unlock()
			s.deduped.Add(1)
			j.recycle()
			return reply, nil
		}
		if s.enqueueLocked(j) {
			s.queued.Add(1)
		} else {
			rejection = ErrQueueFull
		}
	}
	s.mu.Unlock()

	if rejection != nil {
		s.rejected.Add(1)
		j.recycle()
		return proto.InferenceReply{}, rejection
	}
	if s.run != nil {
		s.run.Block()
	}
	select {
	case reply := <-j.done:
		j.recycle()
		return reply, nil
	case <-ctx.Done():
		if j.state.CompareAndSwap(jobWaiting, jobAbandoned) {
			// We own the abandonment: rebalance our own Block token now.
			// The worker's reply will observe jobAbandoned and recycle the
			// job without issuing a token — see reply.
			if s.run != nil {
				s.run.Unblock()
			}
			return proto.InferenceReply{}, ctx.Err()
		}
		// Lost the race: the reply committed first and its wake token is
		// already in flight for us. Take the reply — the request did
		// complete.
		reply := <-j.done
		j.recycle()
		return reply, nil
	}
}

// Handler returns the msgq request handler exposing the server: it decodes
// KindRequest envelopes, submits them, and encodes replies. Malformed
// requests and server-side rejections come back as KindError envelopes.
func (s *Server) Handler() func(proto.Envelope) proto.Envelope {
	return func(env proto.Envelope) proto.Envelope {
		var req proto.InferenceRequest
		if err := env.Decode(proto.KindRequest, &req); err != nil {
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
// and all workers finish.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.stopped || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	started := s.ready
	if started {
		s.closeQueueLocked() // under s.mu: serialized against Submit's enqueue
	}
	s.mu.Unlock()
	if started {
		s.workers.Wait()
	}
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
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
