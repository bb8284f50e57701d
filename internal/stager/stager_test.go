package stager

import (
	"context"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func newMgr() (*Manager, *simtime.Scaled) {
	clk := simtime.NewScaled(100000, origin)
	return NewManager(clk, rng.New(1)), clk
}

func TestSplitURI(t *testing.T) {
	cases := []struct {
		in, plat, path string
	}{
		{"delta:/scratch/data", "delta", "/scratch/data"},
		{"/local/path", "", "/local/path"},
		{"r3:/models/llama", "r3", "/models/llama"},
	}
	for _, c := range cases {
		plat, path := splitURI(c.in)
		if plat != c.plat || path != c.path {
			t.Errorf("splitURI(%q) = %q, %q", c.in, plat, path)
		}
	}
}

func TestStageLinkConstantTime(t *testing.T) {
	m, _ := newMgr()
	d, err := m.Stage(spec.StagingDirective{
		Source: "delta:/a", Target: "delta:/b", Bytes: 1 << 40, Mode: spec.StageLink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Millisecond {
		t.Fatalf("link staging of 1TB took %v, want constant 1ms", d)
	}
}

func TestStageCopyBandwidth(t *testing.T) {
	m, _ := newMgr()
	m.SetLink("delta", "delta", Link{BytesPerSec: 1e9, Latency: rng.ConstDuration(10 * time.Millisecond)})
	d, err := m.Stage(spec.StagingDirective{
		Source: "delta:/a", Target: "delta:/b", Bytes: 2e9, Mode: spec.StageCopy,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*time.Second + 10*time.Millisecond
	if d < want-time.Millisecond || d > want+time.Millisecond {
		t.Fatalf("copy of 2GB at 1GB/s = %v, want %v", d, want)
	}
}

func TestStageTransferDefaultWAN(t *testing.T) {
	m, _ := newMgr()
	// no link registered: cross-platform transfer uses the WAN default
	d, err := m.Stage(spec.StagingDirective{
		Source: "globus:/cellpainting", Target: "delta:/scratch/cp", Bytes: int64(1.25e9), Mode: spec.StageTransfer,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1.25 GB at 1.25 GB/s ≈ 1s plus 50ms setup
	if d < 900*time.Millisecond || d > 1300*time.Millisecond {
		t.Fatalf("WAN transfer = %v, want ≈1.05s", d)
	}
}

func TestStageInvalidDirective(t *testing.T) {
	m, _ := newMgr()
	if _, err := m.Stage(spec.StagingDirective{Source: "", Target: "x", Mode: spec.StageCopy}); err == nil {
		t.Fatal("accepted invalid directive")
	}
}

func TestStageRegistersObject(t *testing.T) {
	m, _ := newMgr()
	_, err := m.Stage(spec.StagingDirective{
		Source: "delta:/a", Target: "delta:/b", Bytes: 42, Mode: spec.StageLink,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := m.Lookup("delta:/b")
	if !ok || obj.Bytes != 42 {
		t.Fatalf("Lookup = %+v, %v", obj, ok)
	}
	if _, ok := m.Lookup("delta:/a"); ok {
		t.Fatal("source registered as object")
	}
}

func TestStageAllSequential(t *testing.T) {
	m, _ := newMgr()
	ds := []spec.StagingDirective{
		{Source: "delta:/a", Target: "delta:/b", Bytes: 1, Mode: spec.StageLink},
		{Source: "delta:/b", Target: "delta:/c", Bytes: 1, Mode: spec.StageLink},
	}
	total, err := m.StageAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2*time.Millisecond {
		t.Fatalf("total = %v", total)
	}
	if len(m.objects) != 2 {
		t.Fatalf("objects = %d", len(m.objects))
	}
}

func TestStageAllStopsOnError(t *testing.T) {
	m, _ := newMgr()
	ds := []spec.StagingDirective{
		{Source: "delta:/a", Target: "delta:/b", Bytes: 1, Mode: spec.StageLink},
		{Source: "", Target: "delta:/c", Mode: spec.StageLink},
		{Source: "delta:/c", Target: "delta:/d", Bytes: 1, Mode: spec.StageLink},
	}
	if _, err := m.StageAll(ds); err == nil {
		t.Fatal("StageAll swallowed the error")
	}
	if _, ok := m.Lookup("delta:/d"); ok {
		t.Fatal("StageAll continued past the error")
	}
}

func TestBytesUnder(t *testing.T) {
	m, _ := newMgr()
	m.Stage(spec.StagingDirective{Source: "s", Target: "delta:/data/x", Bytes: 100, Mode: spec.StageLink}) //nolint:errcheck
	m.Stage(spec.StagingDirective{Source: "s", Target: "delta:/data/y", Bytes: 200, Mode: spec.StageLink}) //nolint:errcheck
	m.Stage(spec.StagingDirective{Source: "s", Target: "delta:/other", Bytes: 999, Mode: spec.StageLink})  //nolint:errcheck
	if got := m.BytesUnder("delta:/data/"); got != 300 {
		t.Fatalf("BytesUnder = %d, want 300", got)
	}
}

// newVirtualMgr returns a manager on an auto-advancing virtual clock with
// the calling test goroutine registered as its driver.
func newVirtualMgr(t *testing.T) (*Manager, *simtime.Virtual) {
	clk := simtime.NewVirtualAuto(origin)
	clk.AddRunner()
	t.Cleanup(clk.DoneRunner)
	return NewManager(clk, rng.New(1)), clk
}

func TestWaitBytesGate(t *testing.T) {
	// the §II-A gate: training starts only once enough processed data are
	// staged, and wakes at the instant the staging that opens it lands
	m, clk := newVirtualMgr(t)
	clk.Go(func() {
		for _, obj := range []struct {
			uri   string
			bytes int64
		}{{"delta:/processed/a", 100}, {"delta:/processed/b", 200}} {
			clk.Sleep(time.Minute)
			m.Stage(spec.StagingDirective{Source: "s", Target: obj.uri, Bytes: obj.bytes, Mode: spec.StageLink}) //nolint:errcheck
		}
	})
	if err := m.WaitBytes(context.Background(), "delta:/processed/", 250); err != nil {
		t.Fatal(err)
	}
	// two 1 min gaps, each followed by a 1 ms link
	want := origin.Add(2*time.Minute + 2*time.Millisecond)
	if got := clk.Now(); !got.Equal(want) {
		t.Fatalf("gate opened at %v, want %v", got.Sub(origin), want.Sub(origin))
	}
	if o, _ := m.Lookup("delta:/processed/b"); !o.StagedAt.Equal(want) {
		t.Fatalf("opening object staged at %v, want %v", o.StagedAt.Sub(origin), want.Sub(origin))
	}
}

func TestWaitBytesCancel(t *testing.T) {
	// a cancelled waiter leaves the gate and takes its runner token back,
	// so time stands still while it runs on
	m, clk := newVirtualMgr(t)
	ctx, cancel := context.WithCancel(context.Background())
	clk.Go(func() {
		clk.Sleep(time.Minute)
		cancel()
	})
	if err := m.WaitBytes(ctx, "delta:/processed/", 250); err != context.Canceled {
		t.Fatalf("WaitBytes = %v, want context.Canceled", err)
	}
	if n := len(m.waiters); n != 0 {
		t.Fatalf("%d waiters left after cancel", n)
	}
	at := clk.Now()
	clk.Go(func() { clk.Sleep(time.Hour) })
	clk.Settle()
	if got := clk.Now(); !got.Equal(at) {
		t.Fatalf("clock moved %v while the cancelled waiter was runnable", got.Sub(at))
	}
}

func TestWaitBytesAlreadySatisfied(t *testing.T) {
	m, _ := newMgr()
	m.Stage(spec.StagingDirective{Source: "s", Target: "delta:/d/a", Bytes: 500, Mode: spec.StageLink}) //nolint:errcheck
	if err := m.WaitBytes(context.Background(), "delta:/d/", 100); err != nil {
		t.Fatal(err)
	}
}

func TestLinkResolutionWildcards(t *testing.T) {
	m, _ := newMgr()
	m.SetLink("*", "*", Link{BytesPerSec: 1, Latency: rng.ConstDuration(0)})
	m.SetLink("delta", "*", Link{BytesPerSec: 2, Latency: rng.ConstDuration(0)})
	m.SetLink("delta", "r3", Link{BytesPerSec: 3, Latency: rng.ConstDuration(0)})
	if l, _ := m.linkFor("delta", "r3"); l.BytesPerSec != 3 {
		t.Fatalf("exact match not preferred: %v", l.BytesPerSec)
	}
	if l, _ := m.linkFor("delta", "frontier"); l.BytesPerSec != 2 {
		t.Fatalf("src wildcard not preferred: %v", l.BytesPerSec)
	}
	if l, _ := m.linkFor("r3", "frontier"); l.BytesPerSec != 1 {
		t.Fatalf("full wildcard not used: %v", l.BytesPerSec)
	}
}
