package restapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/simtime"
)

// Caller is the client of a remote REST model service, behind the
// service.Caller interface, so remote REST-exposed model instances (the
// R3 deployment) are interchangeable with msgq-connected local services
// from the client task's perspective.
type Caller struct {
	ep    proto.Endpoint
	hc    *http.Client
	clock simtime.Clock

	seq atomic.Uint64 // request IDs: concurrent calls each draw their own
}

var _ service.Caller = (*Caller)(nil)

// NewCaller builds a Caller for a REST endpoint (ep.Address is the base
// URL, ep.Protocol must be "rest").
func NewCaller(ep proto.Endpoint, clock simtime.Clock) (*Caller, error) {
	if ep.Protocol != "rest" {
		return nil, fmt.Errorf("restapi: endpoint %s has protocol %q, want rest", ep.ServiceUID, ep.Protocol)
	}
	return &Caller{ep: ep, hc: &http.Client{Timeout: 5 * time.Minute}, clock: clock}, nil
}

// Infer implements service.Caller over HTTP.
func (c *Caller) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	requestID := restRequestID(c.ep.ServiceUID, c.seq.Add(1))
	start := c.clock.Now()
	resp, err := c.generate(ctx, generateRequest{
		Model:     c.ep.Model,
		Prompt:    prompt,
		MaxTokens: maxTokens,
		RequestID: requestID,
	})
	total := c.clock.Now().Sub(start)
	if err != nil {
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	reply := proto.InferenceReply{
		RequestUID:   requestID,
		ServiceUID:   resp.ServiceUID,
		Model:        resp.Model,
		Text:         resp.Response,
		PromptTokens: resp.PromptTokens,
		OutputTokens: resp.OutputTokens,
		Timing:       resp.Timing,
	}
	return reply, service.DecomposeRT(total, resp.Timing), nil
}

// restRequestID spells "<service>.rest.NNNNNN" as fmt.Sprintf's
// "%s.rest.%06d" does, n zero-padded to six digits, in one allocation.
func restRequestID(service string, n uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	var sb strings.Builder
	sb.Grow(len(service) + len(".rest.") + max(len(d), 6))
	sb.WriteString(service)
	sb.WriteString(".rest.")
	for i := len(d); i < 6; i++ {
		sb.WriteByte('0')
	}
	sb.Write(d)
	return sb.String()
}

// generate POSTs one /api/generate call.
func (c *Caller) generate(ctx context.Context, req generateRequest) (generateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return generateResponse{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.ep.Address+"/api/generate", bytes.NewReader(body))
	if err != nil {
		return generateResponse{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return generateResponse{}, fmt.Errorf("restapi: generate: %w", err)
	}
	defer resp.Body.Close()
	var out generateResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&out); err != nil {
		return generateResponse{}, fmt.Errorf("restapi: decode response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := out.Error
		if msg == "" {
			msg = resp.Status
		}
		return out, fmt.Errorf("restapi: generate failed: %s", msg)
	}
	return out, nil
}

// Close implements service.Caller (HTTP clients hold no persistent
// state).
func (c *Caller) Close() error { return nil }
