package loadgen

import (
	"fmt"
	"time"

	"repro/internal/loadbal"
	"repro/internal/rng"
)

// Kind names a scenario shape.
type Kind string

// Scenario shapes.
const (
	// KindSteady is a homogeneous Poisson stream over round-robin targets.
	KindSteady Kind = "steady"
	// KindDiurnal modulates the arrival rate with a sinusoidal wave.
	KindDiurnal Kind = "diurnal"
	// KindHotspot skews request targeting onto service 0.
	KindHotspot Kind = "hotspot"
	// kindStraggler hosts a slow model on service 0 (the others stay noop).
	kindStraggler Kind = "straggler"
	// kindChurn shuts down one of two pilots mid-stream, forcing the
	// session to re-place and re-publish the affected services.
	kindChurn Kind = "churn"
	// kindTrace replays an explicit inter-arrival gap sequence.
	kindTrace Kind = "trace"
)

// Scenario parameterizes one open-loop campaign.
type Scenario struct {
	// Name labels the scenario in tables and artifacts.
	Name string
	// Kind selects the shape; zero value means KindSteady.
	Kind Kind
	// Requests is the exact number of offered arrivals.
	Requests int
	// Rate is the mean arrival rate in requests per second.
	Rate float64
	// Services is the number of backend service instances.
	Services int
	// Concurrency is the per-service worker count (0 = server default 1).
	Concurrency int
	// QueueCap bounds each service's request queue (0 = default 4096);
	// arrivals rejected by a full queue count as failed.
	QueueCap int
	// Seed drives every stochastic choice (arrivals, targeting, models).
	Seed uint64
	// MaxTokens bounds generation for non-noop backends.
	MaxTokens int
	// Model is the backend model every service hosts (default noop;
	// kindStraggler still overrides service 0 with stragglerModel).
	Model string
	// MaxBatch bounds the per-service dispatcher batch (0/1 = no
	// batching).
	MaxBatch int
	// MaxReplicas bounds the session autoscaler, which keeps at least one
	// replica and runs on core's fixed control law. MaxReplicas > 1
	// enables it, and each service's Balancer spreads requests over its
	// replicas by load instead of sending them all to the base UID.
	MaxReplicas int

	// WaveAmp is the diurnal amplitude as a fraction of Rate, in [0, 1).
	WaveAmp float64
	// WavePeriod is the diurnal wave period.
	WavePeriod time.Duration

	// HotspotWeight is the probability mass targeted at service 0.
	HotspotWeight float64

	// Balance names the picker KindHotspot routes its skewed mass with
	// ("p2c" by default, "round-robin", "least-loaded"): the skewed mass
	// goes through a registry balancing group over the whole fleet, dialled
	// as service 0 by a Session.DialService client. The unskewed
	// remainder keeps hitting services 1..N-1 directly, so the balancer
	// only sees that background load in the servers' queues, which it
	// reads at each pick.
	Balance string

	// ChurnAt is the campaign offset at which pilot 0 is shut down.
	ChurnAt time.Duration

	// TaskEvery, when positive, submits one compute task through the
	// TaskManager every TaskEvery-th arrival, exercising the task seam
	// alongside service inference.
	TaskEvery int

	// Trace is the explicit gap sequence for kindTrace.
	Trace []time.Duration

	// KeepSamples retains every completion latency, for exact quantiles
	// where the sketch's relative error is too coarse; it costs O(n)
	// memory.
	KeepSamples bool
}

// WithDefaults returns a copy with unset fields defaulted.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Kind == "" {
		sc.Kind = KindSteady
	}
	if sc.Name == "" {
		sc.Name = string(sc.Kind)
	}
	if sc.Requests <= 0 {
		sc.Requests = 10000
	}
	if sc.Rate <= 0 {
		sc.Rate = 1000
	}
	if sc.Services <= 0 {
		sc.Services = 4
	}
	if sc.Kind == KindDiurnal {
		if sc.WaveAmp == 0 {
			sc.WaveAmp = 0.8
		}
		if sc.WavePeriod <= 0 {
			sc.WavePeriod = 20 * time.Second
		}
	}
	if sc.Kind == KindHotspot {
		if sc.HotspotWeight == 0 {
			sc.HotspotWeight = 0.8
		}
		if sc.Balance == "" {
			sc.Balance = "p2c"
		}
	}
	if sc.Kind == kindStraggler && sc.MaxTokens == 0 {
		sc.MaxTokens = 8
	}
	if sc.Kind == kindChurn && sc.ChurnAt <= 0 {
		// halfway through the expected campaign span
		sc.ChurnAt = time.Duration(float64(sc.Requests) / sc.Rate / 2 * float64(time.Second))
	}
	if sc.Kind == kindTrace {
		sc.Requests = len(sc.Trace)
	}
	return sc
}

// Validate rejects inconsistent scenarios.
func (sc Scenario) Validate() error {
	switch sc.Kind {
	case KindSteady, KindDiurnal, KindHotspot, kindStraggler, kindChurn, kindTrace:
	default:
		return fmt.Errorf("loadgen: unknown scenario kind %q", sc.Kind)
	}
	if sc.Requests <= 0 {
		return fmt.Errorf("loadgen: scenario %s has no requests", sc.Name)
	}
	if sc.Rate <= 0 {
		return fmt.Errorf("loadgen: scenario %s needs a positive rate", sc.Name)
	}
	if sc.Kind == KindDiurnal && (sc.WaveAmp < 0 || sc.WaveAmp >= 1) {
		return fmt.Errorf("loadgen: scenario %s wave amplitude %v outside [0, 1)", sc.Name, sc.WaveAmp)
	}
	if sc.Kind == KindHotspot && (sc.HotspotWeight < 0 || sc.HotspotWeight > 1) {
		return fmt.Errorf("loadgen: scenario %s hotspot weight %v outside [0, 1]", sc.Name, sc.HotspotWeight)
	}
	if _, err := loadbal.PickerByName(sc.Balance, 0); err != nil {
		return fmt.Errorf("loadgen: scenario %s: %w", sc.Name, err)
	}
	if sc.Kind == kindChurn && sc.ChurnAt <= 0 {
		return fmt.Errorf("loadgen: scenario %s needs a positive churn offset", sc.Name)
	}
	if sc.Kind == kindTrace && len(sc.Trace) == 0 {
		return fmt.Errorf("loadgen: scenario %s has an empty trace", sc.Name)
	}
	if sc.MaxBatch < 0 {
		return fmt.Errorf("loadgen: scenario %s has a negative batch bound", sc.Name)
	}
	if sc.MaxReplicas < 0 {
		return fmt.Errorf("loadgen: scenario %s has a negative replica bound", sc.Name)
	}
	return nil
}

// arrivals builds the scenario's arrival process from the campaign seed.
func (sc Scenario) arrivals(seed uint64) Arrivals {
	src := rng.New(seed).Derive("arrivals")
	switch sc.Kind {
	case KindDiurnal:
		return newDiurnalArrivals(src, sc.Rate, sc.WaveAmp, sc.WavePeriod, sc.Requests)
	case kindTrace:
		return newTraceArrivals(sc.Trace)
	default:
		return PoissonArrivals(src, sc.Rate, sc.Requests)
	}
}

// Catalog returns the standard scenario suite of the load matrix — the
// five shapes named by the roadmap, sized so the full matrix runs in a
// few seconds of wall time. Callers scale Requests up for campaigns.
func Catalog() []Scenario {
	return []Scenario{
		{Name: "steady", Kind: KindSteady, Requests: 50000, Rate: 2000, Services: 4, Seed: 7, TaskEvery: 1000},
		{Name: "diurnal", Kind: KindDiurnal, Requests: 50000, Rate: 2000, Services: 4, Seed: 7},
		{Name: "hotspot", Kind: KindHotspot, Requests: 50000, Rate: 2000, Services: 4, Seed: 7},
		{Name: "straggler", Kind: kindStraggler, Requests: 20000, Rate: 800, Services: 4, Seed: 7},
		{Name: "churn", Kind: kindChurn, Requests: 50000, Rate: 2000, Services: 4, Seed: 7},
	}
}
