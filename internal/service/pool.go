package service

import (
	"context"

	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// Caller is the client-side inference interface, satisfied by the msgq
// Client, the REST client adapter, and the load-balanced Pool. Client
// tasks program against Caller, so local and remote model instances are
// interchangeable — the interoperability §III requires.
type Caller interface {
	// Infer performs one synchronous inference and returns the reply and
	// the RT breakdown (communication / service / inference).
	Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error)
	Close() error
}

// Pool is a load-balanced Caller over every live endpoint of one model,
// resolved through the session EndpointRegistry — the "dynamically
// rerouting requests to less used service instances" of the paper's
// future work, layered client-side over any loadbal.Picker.
//
// The registry is the single source of endpoint truth: the candidate set
// is re-read per request (services joining, leaving, or failing over are
// picked up live; a suspended endpoint is skipped, where a Balancer's
// group view keeps it), the picker reads the registry's reported load
// gauges under the same staleness horizon a Balancer applies, and each
// candidate is called through a per-UID Resolver, so pooled clients get
// exactly the generation-stamped stale-endpoint detection Resolver
// clients have: staleness is decided by comparing the failed generation
// against the registry, never inferred from an error.
type Pool struct {
	m     members
	model string
}

// NewPool builds a Pool over the registry's live endpoints for model.
// opts are the Balancer's: a nil Picker selects seeded
// power-of-two-choices, which rotates blindly until loads are reported.
func NewPool(reg *EndpointRegistry, model string, dial DialFn, opts BalancerOptions) (*Pool, error) {
	p := &Pool{model: model}
	if err := p.m.init(reg, "pool for "+model, dial, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Infer implements Caller: pick a live endpoint and forward the call
// through its generation-aware resolver.
func (p *Pool) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	view := p.m.reg.modelView(p.model)
	if view.Len() == 0 {
		return proto.InferenceReply{}, metrics.Breakdown{}, loadbal.ErrNoEndpoints
	}
	return p.m.infer(ctx, view.UID(p.m.pick(view)), prompt, maxTokens)
}

// Close implements Caller: releases every member resolver.
func (p *Pool) Close() error { return p.m.close() }
