package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// TestDecomposeRT pins the RT split's parts, their order and names, and
// that building it allocates nothing.
func TestDecomposeRT(t *testing.T) {
	at := time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)
	tm := proto.Timing{
		ReceivedAt:   at,
		DequeuedAt:   at.Add(5 * time.Microsecond),
		InferStartAt: at.Add(20 * time.Microsecond),
		InferEndAt:   at.Add(120 * time.Microsecond),
		RepliedAt:    at.Add(140 * time.Microsecond),
	}
	rt := DecomposeRT(300*time.Microsecond, tm)
	want := metrics.Breakdown{
		{"communication", 160 * time.Microsecond}, {"service", 40 * time.Microsecond}, {"inference", 100 * time.Microsecond},
	}
	if rt != want {
		t.Fatalf("DecomposeRT = %v, want %v", rt, want)
	}
	if rt.Total() != 300*time.Microsecond {
		t.Fatalf("Total = %v, want the measured 300µs", rt.Total())
	}
	var sink metrics.Breakdown
	if allocs := testing.AllocsPerRun(100, func() { sink = DecomposeRT(300*time.Microsecond, tm) }); allocs != 0 {
		t.Fatalf("DecomposeRT allocates %.1f objects, want 0", allocs)
	}
	_ = sink
}

// TestRequestUID holds requestUID to the fmt.Sprintf format it replaces at
// the edges of its blocks and of the digit widths, a fresh client and one
// that came from elsewhere alike; to a straggler being spelled its own
// block without evicting the newer one; and to its cost: two objects (the
// UIDs and their holder) for each block of 100 consecutive ids, counted only
// without the race detector.
func TestRequestUID(t *testing.T) {
	const prefix = "delta.client.0001.req."
	shared := &Client{uidPrefix: prefix}
	for _, id := range []uint64{
		0, 1, 99, 100, 999999, 1000000, 1 << 40,
		math.MaxUint64 - 16, math.MaxUint64 - 15, math.MaxUint64, // the partial last block
	} {
		want := fmt.Sprintf(prefix+"%06d", id)
		if got := (&Client{uidPrefix: prefix}).requestUID(id); got != want {
			t.Errorf("fresh requestUID(%d) = %q, want %q", id, got, want)
		}
		if got := shared.requestUID(id); got != want {
			t.Errorf("requestUID(%d) after a lower id = %q, want %q", id, got, want)
		}
	}
	c := &Client{uidPrefix: prefix}
	for _, id := range []uint64{250, 150, 199, 200, 299} {
		if got, want := c.requestUID(id), fmt.Sprintf(prefix+"%06d", id); got != want {
			t.Errorf("requestUID(%d) = %q, want %q", id, got, want)
		}
		if first := c.uids.Load().first; first != 200 {
			t.Fatalf("after id %d the client holds the block at %d, want 200", id, first)
		}
	}
	for id := uint64(999_700); id < 1_000_300; id++ {
		if got, want := c.requestUID(id), fmt.Sprintf(prefix+"%06d", id); got != want {
			t.Fatalf("requestUID(%d) = %q, want %q", id, got, want)
		}
	}

	if raceEnabled {
		t.Skip("an exact allocation count under the race detector is not the code's")
	}
	// The count is process-wide, so the quietest of five rounds counts.
	const rounds, run = 5, 100 * uidBlockLen
	c, id := &Client{uidPrefix: prefix}, uint64(1)
	allocs := math.Inf(1)
	for range rounds {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			for range run {
				c.requestUID(id)
				id++
			}
		})/run)
	}
	if allocs > 0.02 {
		t.Errorf("requestUID allocates %.4f objects per UID, want at most 2 per block of %d", allocs, uidBlockLen)
	}
}

// TestRequestUIDsConcurrentRace: concurrent callers of one client, each
// spelling a block when its id leaves the one it loaded, get every request
// UID exactly once.
func TestRequestUIDsConcurrentRace(t *testing.T) {
	const callers, calls = 8, 500
	clock := simtime.NewReal()
	net := msgq.NewNetwork(clock, rng.New(7), nil)
	defer net.Close()
	srv, err := net.Bind("svc.echo", func(env proto.Envelope) proto.Envelope {
		req, err := env.DecodeRequest()
		if err != nil {
			t.Error(err)
		}
		return env.Answer("svc.echo", clock.Now(), &proto.InferenceReply{RequestUID: req.RequestUID})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(net, clock, "client", proto.Endpoint{ServiceUID: "svc", Model: "noop", Address: "svc.echo"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got := make([][]string, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				reply, _, err := cl.Infer(context.Background(), "x", 0)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], reply.RequestUID)
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, callers*calls)
	for _, uids := range got {
		for _, uid := range uids {
			if seen[uid] {
				t.Fatalf("request UID %q came back twice", uid)
			}
			seen[uid] = true
		}
	}
	for id := 1; id <= callers*calls; id++ {
		if uid := fmt.Sprintf("client.req.%06d", id); !seen[uid] {
			t.Fatalf("request UID %q never came back (%d distinct of %d)", uid, len(seen), callers*calls)
		}
	}
}

// TestInferMalformedErrorBody: a reply whose body is not an
// InferenceReply surfaces as a decode failure naming the service, not as
// an error with an empty message.
func TestInferMalformedErrorBody(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	net := msgq.NewNetwork(clock, rng.New(7), nil)
	defer net.Close()
	srv, err := net.Bind("svc.bad", func(env proto.Envelope) proto.Envelope {
		return proto.Envelope{Kind: proto.KindReply, From: env.To, To: env.From, Body: []byte(`"not an object"`)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(net, clock, "client.0", proto.Endpoint{ServiceUID: "service.bad", Model: "noop", Address: "svc.bad"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.Infer(context.Background(), "hi", 0)
	var typeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) || !strings.HasPrefix(err.Error(), "service service.bad: proto: decode reply body") {
		t.Fatalf("Infer err = %v, want the wrapped decode failure of service.bad's reply body", err)
	}
}
