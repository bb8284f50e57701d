// Command modelserve runs a standalone simulated model service behind the
// REST API — the "R3" side of the paper's remote deployment. Point a
// session's REST endpoint (restapi.Caller) or curl at it:
//
//	modelserve -model llama-8b -addr 127.0.0.1:8080 -scale 1000 &
//	curl -s localhost:8080/api/health
//	curl -s -X POST localhost:8080/api/generate \
//	     -d '{"model":"llama-8b","prompt":"hello","max_tokens":32}'
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/restapi"
	"repro/internal/rng"
	"repro/internal/serving"
	"repro/internal/simtime"
)

func main() {
	model := flag.String("model", "llama-8b", "model to serve (catalog name)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	scale := flag.Float64("scale", 1000, "clock compression (1 = real-time model speeds)")
	seed := flag.Uint64("seed", 7, "RNG seed")
	conc := flag.Int("concurrency", 1, "request handlers (paper prototype: 1)")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(*model, *addr, *scale, *seed, *conc, sig, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "modelserve: %v\n", err)
		os.Exit(1)
	}
}

// run serves model at addr until stop yields or closes, then drains,
// writing its progress lines to out.
func run(model, addr string, scale float64, seed uint64, conc int, stop <-chan os.Signal, out io.Writer) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("modelserve: -scale %v: want a finite positive number", scale)
	}
	spec, err := llm.Lookup(model)
	if err != nil {
		return err
	}
	clock := simtime.NewScaled(scale, core.DefaultOrigin)
	src := rng.New(seed)
	srv, err := serving.New(serving.Config{
		UID:         "r3.service.0001",
		Backend:     serving.LLMBackend{M: llm.NewInstance(spec, clock, src.Derive("model"))},
		Clock:       clock,
		Src:         src.Derive("server"),
		Concurrency: conc,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loading %s ...\n", model)
	start := time.Now()
	load, err := srv.Start()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model ready: %s simulated load (%s wall)\n", load.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))

	g, err := restapi.NewGateway(srv, addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving %s at %s (POST /api/generate, GET /api/health)\n", model, g.URL())

	<-stop
	fmt.Fprintln(out, "draining ...")
	srv.Drain()
	return g.Close()
}
