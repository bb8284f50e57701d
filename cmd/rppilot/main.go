// Command rppilot is a standalone pilot-agent process: it launches one
// pilot on the TCP transport, prints "RPPILOT_READY <host:port>" on
// stdout, and serves control RPCs (task submission, service bootstrap,
// scheduler snapshots) as binary proto frames until it is told to shut
// down or its stdin reaches EOF.
//
// It runs in two modes:
//
//   - Spawned: a driver (xproc.Spawn, `rpexp -exp xproc`, the experiments
//     tests) re-executes a binary with the agent config JSON in the
//     RPPILOT_AGENT environment variable. MaybeRunAgent detects it and
//     never returns.
//
//   - Manual: flags assemble the same config for foreground use, e.g.
//
//     rppilot -uid pilot.0000 -platform hetero -nodes 32
//
// See README "Multi-process sessions" and ARCHITECTURE.md Flow 8.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/xproc"
)

func main() {
	xproc.MaybeRunAgent()
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args and runs the agent until a shutdown RPC arrives or stdin
// reaches EOF, printing the ready line to stdout and any diagnostic to
// stderr. It returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rppilot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	uid := fs.String("uid", "pilot.0000", "pilot UID")
	plat := fs.String("platform", "hetero", "catalog platform to carve the pilot from")
	nodes := fs.Int("nodes", 0, "pilot node count (0: whole platform)")
	skip := fs.Int("skip", 0, "nodes to pre-allocate before acquiring (partition carving)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	scale := fs.Float64("scale", 2000, "clock compression factor")
	sched := fs.String("sched", "", "pilot scheduling policy: strict|backfill|best-fit (default strict)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	err := xproc.RunAgent(xproc.AgentConfig{
		UID:         *uid,
		Platform:    *plat,
		SkipNodes:   *skip,
		Nodes:       *nodes,
		Seed:        *seed,
		Scale:       *scale,
		SchedPolicy: *sched,
	}, stdin, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "rppilot: %v\n", err)
		return 1
	}
	return 0
}
