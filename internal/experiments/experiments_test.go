package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

// The tests run miniature versions of each experiment — small instance
// counts and request budgets — and assert the qualitative shapes the paper
// reports, not absolute numbers.

func TestDefaultConfigsMatchPaper(t *testing.T) {
	bt := DefaultBTConfig()
	if len(bt.Counts) != 10 || bt.Counts[0] != 1 || bt.Counts[9] != 640 {
		t.Fatalf("Exp 1 counts = %v", bt.Counts)
	}
	e2 := DefaultExp2Config(DeployLocal, ScalingStrong)
	if e2.RequestsPerClient != 1024 {
		t.Fatalf("Exp 2 requests/client = %d, paper uses 1024", e2.RequestsPerClient)
	}
	if p := e2.Pairs; p[0] != [2]int{16, 1} || p[len(p)-1] != [2]int{16, 16} {
		t.Fatalf("strong pairs = %v", p)
	}
	if p := DefaultExp2Config(DeployLocal, ScalingWeak).Pairs; p[0] != [2]int{1, 1} {
		t.Fatalf("weak pairs = %v", p)
	}
	e3 := DefaultExp3Config(DeployRemote, ScalingWeak)
	if e3.Model != "llama-8b" || e3.Deploy != DeployRemote {
		t.Fatalf("Exp 3 config = %+v", e3)
	}
}

func TestExp1BootstrapShape(t *testing.T) {
	cfg := BTConfig{Counts: []int{1, 8, 320}, Model: "llama-8b", Seed: 1}
	res, err := RunBT(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Launch.N != row.N || row.Init.N != row.N {
			t.Fatalf("N=%d: sample counts %d/%d", row.N, row.Launch.N, row.Init.N)
		}
		// Fig. 3: init dominates launch; publish below launch
		if row.Init.Mean <= row.Launch.Mean {
			t.Fatalf("N=%d: init %v !> launch %v", row.N, row.Init.Mean, row.Launch.Mean)
		}
		if row.Publish.Mean >= row.Launch.Mean {
			t.Fatalf("N=%d: publish %v !< launch %v", row.N, row.Publish.Mean, row.Launch.Mean)
		}
	}
	// Fig. 3: launch grows past the 160-instance saturation
	if res.Rows[2].Launch.Mean <= 2*res.Rows[0].Launch.Mean {
		t.Fatalf("launch at 320 (%v) not markedly above launch at 1 (%v)",
			res.Rows[2].Launch.Mean, res.Rows[0].Launch.Mean)
	}
	// init stays roughly flat (per instance) across the sweep
	ratio := float64(res.Rows[2].Init.Mean) / float64(res.Rows[0].Init.Mean)
	if ratio > 2.0 || ratio < 0.5 {
		t.Fatalf("init mean drifted by %.2fx across the sweep", ratio)
	}
	tab := res.Table().Render()
	if !strings.Contains(tab, "Fig. 3") || !strings.Contains(tab, "320") {
		t.Fatalf("table rendering broken:\n%s", tab)
	}
}

func TestExp2LocalNoopShape(t *testing.T) {
	cfg := RTConfig{
		Model: "noop", Deploy: DeployLocal,
		Pairs:             [][2]int{{4, 1}, {4, 4}},
		RequestsPerClient: 32,
		Seed:              2,
	}
	res, err := RunRT(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Total.N != row.Clients*cfg.RequestsPerClient {
			t.Fatalf("%d/%d: %d samples, want %d", row.Clients, row.Services, row.Total.N, row.Clients*cfg.RequestsPerClient)
		}
		// Exp 2: communication dominates the NOOP response time
		if row.Comm.Mean <= row.Infer.Mean {
			t.Fatalf("%d/%d: communication %v !> inference %v", row.Clients, row.Services, row.Comm.Mean, row.Infer.Mean)
		}
	}
}

func TestExp2RemoteSlowerThanLocal(t *testing.T) {
	base := RTConfig{
		Model:             "noop",
		Pairs:             [][2]int{{2, 2}},
		RequestsPerClient: 64,
		Seed:              7,
	}
	local := base
	local.Deploy = DeployLocal
	remote := base
	remote.Deploy = DeployRemote
	lres, err := RunRT(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := RunRT(context.Background(), remote)
	if err != nil {
		t.Fatal(err)
	}
	lc, rc := lres.Rows[0].Comm.Mean, rres.Rows[0].Comm.Mean
	// paper: remote latency 0.47ms vs local 0.063ms per hop → a round trip
	// (2 hops) is modelled ~0.81ms slower remote
	if rc-lc < 400*time.Microsecond {
		t.Fatalf("remote communication %v not clearly above local %v (want ≥ 400µs gap)", rc, lc)
	}
	if float64(rc) < 1.3*float64(lc) {
		t.Fatalf("remote communication %v not clearly above local %v", rc, lc)
	}
}

func TestExp3InferenceDominates(t *testing.T) {
	cfg := RTConfig{
		Model: "llama-8b", Deploy: DeployRemote,
		Pairs:             [][2]int{{2, 2}},
		RequestsPerClient: 2,
		MaxTokens:         128,
		Seed:              3,
	}
	res, err := RunRT(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	// Fig. 6: inference dwarfs both communication and queue/service time in
	// the weak-scaling (uncontended) regime
	if row.Infer.Mean < 5*row.Comm.Mean {
		t.Fatalf("inference %v does not dominate communication %v", row.Infer.Mean, row.Comm.Mean)
	}
	if row.Infer.Mean < 500*time.Millisecond {
		t.Fatalf("inference %v implausibly fast for llama-8b", row.Infer.Mean)
	}
}

func TestExp3StrongScalingQueueing(t *testing.T) {
	// 4 clients on 1 single-threaded service vs 4 on 4: the contended
	// configuration must show far larger service (queue) time.
	cfg := RTConfig{
		Model: "llama-8b", Deploy: DeployLocal,
		Pairs:             [][2]int{{4, 1}, {4, 4}},
		RequestsPerClient: 2,
		MaxTokens:         64,
		Seed:              4,
	}
	res, err := RunRT(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	contended, uncontended := res.Rows[0], res.Rows[1]
	if contended.Service.Mean < 2*uncontended.Service.Mean {
		t.Fatalf("queueing: contended service time %v vs uncontended %v — no backlog visible",
			contended.Service.Mean, uncontended.Service.Mean)
	}
}

func TestRTTableRendering(t *testing.T) {
	res := &RTResult{Cfg: DefaultExp3Config(DeployRemote, ScalingStrong)}
	res.Rows = append(res.Rows, RTRow{Clients: 16, Services: 1})
	out := res.Table().Render()
	if !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "16/1") {
		t.Fatalf("table:\n%s", out)
	}
	res2 := &RTResult{Cfg: DefaultExp2Config(DeployRemote, ScalingStrong)}
	if !strings.Contains(res2.Table().Render(), "Fig. 5") {
		t.Fatal("Fig. 5 title missing")
	}
}

func TestTableII(t *testing.T) {
	out := TableII().Render()
	for _, want := range []string{"Frontier", "Delta and R3", "llama 8b", "strong/weak", "1024"} {
		if want == "1024" {
			continue // request count is §IV-C text, not a Table II column
		}
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}
