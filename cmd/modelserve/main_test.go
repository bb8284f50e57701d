package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// The wire bodies as a client reads them, keyed independently of the
// server's types. decodeStrict refuses a key they do not name, so a key
// renamed on the server fails the test.
type (
	healthBody struct {
		ServiceUID string `json:"service_uid"`
		Model      string `json:"model"`
		Ready      bool   `json:"ready"`
		Queued     int    `json:"queued"`
		InFlight   int    `json:"in_flight"`
		QueueDepth int    `json:"queue_depth"`
		Processed  int64  `json:"processed"`
	}
	generateBody struct {
		Model        string          `json:"model"`
		Response     string          `json:"response"`
		PromptTokens int             `json:"prompt_tokens"`
		OutputTokens int             `json:"output_tokens"`
		ServiceUID   string          `json:"service_uid"`
		Timing       json.RawMessage `json:"timing"`
		Error        string          `json:"error"`
	}
)

// decodeStrict decodes resp's body into v and closes it.
func decodeStrict(resp *http.Response, v any) error {
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestServeGenerateDrain drives run end to end: it binds an ephemeral
// port, answers a health probe and one generate call over real HTTP, and
// drains when the stop channel closes. There is no golden: the ready line
// carries wall time.
func TestServeGenerateDrain(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- run("llama-8b", "127.0.0.1:0", 100000, 7, 1, stop, pw)
		pw.Close()
	}()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func() string {
		t.Helper()
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("run ended early: %v", <-done)
			}
			return l
		case <-time.After(30 * time.Second):
			t.Fatal("no output from run")
		}
		return ""
	}

	// "serving llama-8b at http://127.0.0.1:PORT (POST /api/generate, ...)"
	var url string
	for url == "" {
		if l := next(); strings.HasPrefix(l, "serving llama-8b at ") {
			url = strings.Fields(strings.TrimPrefix(l, "serving llama-8b at "))[0]
		}
	}

	resp, err := http.Get(url + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var h healthBody
	if err := decodeStrict(resp, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Model != "llama-8b" || h.ServiceUID != "r3.service.0001" {
		t.Fatalf("health = %+v", h)
	}

	resp, err = http.Post(url+"/api/generate", "application/json",
		strings.NewReader(`{"model":"llama-8b","prompt":"hello","max_tokens":16}`))
	if err != nil {
		t.Fatal(err)
	}
	var g generateBody
	if err := decodeStrict(resp, &g); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || g.Model != "llama-8b" || g.ServiceUID != "r3.service.0001" ||
		g.Response == "" || g.PromptTokens < 1 || g.OutputTokens < 1 || g.OutputTokens > 16 || len(g.Timing) == 0 {
		t.Fatalf("generate = %d %+v", resp.StatusCode, g)
	}

	close(stop)
	if l := next(); l != "draining ..." {
		t.Fatalf("after stop: %q, want \"draining ...\"", l)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after draining")
	}
}

func TestUnknownModel(t *testing.T) {
	var out strings.Builder
	if err := run("nosuch", "127.0.0.1:0", 1000, 7, 1, nil, &out); err == nil {
		t.Fatal("run served an unknown model")
	}
	if out.Len() != 0 {
		t.Fatalf("run printed %q before failing", out.String())
	}
}

// TestBadScale pins that run refuses a clock compression that is not a
// finite positive number before it loads or binds anything.
func TestBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(scale), func(t *testing.T) {
			var out strings.Builder
			err := run("llama-8b", "127.0.0.1:0", scale, 7, 1, nil, &out)
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Fatalf("run(scale %v) = %v, want a -scale error", scale, err)
			}
			if out.Len() != 0 {
				t.Fatalf("run printed %q before failing", out.String())
			}
		})
	}
}
