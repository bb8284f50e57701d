// Package restapi exposes a model-serving Server over HTTP — the REST
// interface of the paper's R3 deployment ("a cloud-based server on which
// we expose ML capabilities via REST and ZeroMQ interfaces"). The API
// shape follows Ollama's: POST /api/generate for inference, plus
// /api/health for readiness and liveness probing across the WAN.
package restapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/proto"
	"repro/internal/serving"
)

// generateRequest is the POST /api/generate body.
type generateRequest struct {
	Model     string `json:"model"`
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	ClientID  string `json:"client_id,omitempty"`
}

// generateResponse is the POST /api/generate reply body.
type generateResponse struct {
	Model        string       `json:"model"`
	Response     string       `json:"response"`
	PromptTokens int          `json:"prompt_tokens"`
	OutputTokens int          `json:"output_tokens"`
	ServiceUID   string       `json:"service_uid"`
	Timing       proto.Timing `json:"timing"`
	Error        string       `json:"error,omitempty"`
}

// health is the GET /api/health body.
type health struct {
	ServiceUID string `json:"service_uid"`
	Model      string `json:"model"`
	Ready      bool   `json:"ready"`
	Queued     int    `json:"queued"`
	InFlight   int    `json:"in_flight"`
	QueueDepth int    `json:"queue_depth"` // Queued + InFlight
	Processed  int64  `json:"processed"`
}

// Gateway serves one serving.Server over HTTP.
type Gateway struct {
	srv  *serving.Server
	http *http.Server
	ln   net.Listener
}

// NewGateway binds addr (e.g. "127.0.0.1:0") and starts serving.
func NewGateway(srv *serving.Server, addr string) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("restapi: listen %s: %w", addr, err)
	}
	g := &Gateway{srv: srv, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/generate", g.handleGenerate)
	mux.HandleFunc("GET /api/health", g.handleHealth)
	g.http = &http.Server{Handler: mux}
	go g.http.Serve(ln) //nolint:errcheck
	return g, nil
}

// Addr returns the bound address ("host:port").
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// URL returns the base URL.
func (g *Gateway) URL() string { return "http://" + g.Addr() }

// Endpoint returns the registrable endpoint record for this gateway.
func (g *Gateway) Endpoint() proto.Endpoint {
	return proto.Endpoint{
		ServiceUID: g.srv.UID(),
		Model:      g.srv.Model(),
		Address:    g.URL(),
		Protocol:   "rest",
	}
}

// Close shuts the HTTP server down.
func (g *Gateway) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return g.http.Shutdown(ctx)
}

func (g *Gateway) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, generateResponse{Error: "malformed request: " + err.Error()})
		return
	}
	reply, err := g.srv.Submit(r.Context(), proto.InferenceRequest{
		RequestUID: req.RequestID,
		ClientUID:  req.ClientID,
		Model:      req.Model,
		Prompt:     req.Prompt,
		MaxTokens:  req.MaxTokens,
	})
	if err == nil && reply.Err != "" {
		err = errors.New(reply.Err) // a queued request Stop flushed
	}
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, serving.ErrQueueFull) {
			status = http.StatusTooManyRequests
		}
		writeJSON(w, status, generateResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, generateResponse{
		Model:        reply.Model,
		Response:     reply.Words(),
		PromptTokens: reply.PromptTokens,
		OutputTokens: reply.OutputTokens,
		ServiceUID:   reply.ServiceUID,
		Timing:       reply.Timing,
	})
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, health{
		ServiceUID: g.srv.UID(),
		Model:      g.srv.Model(),
		Ready:      g.srv.Ready(),
		Queued:     g.srv.Queued(),
		InFlight:   g.srv.InFlight(),
		QueueDepth: g.srv.QueueDepth(),
		Processed:  g.srv.Processed(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
