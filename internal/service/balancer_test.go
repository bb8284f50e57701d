package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadbal"
	"repro/internal/proto"
)

// balReg builds a registry holding base "svc" plus n replica members
// m1..mn, every endpoint published and admitted to the balancing group.
func balReg(n int) *EndpointRegistry {
	reg := NewEndpointRegistry()
	reg.Publish(ep("svc", "addr-svc"))
	for i := 1; i <= n; i++ {
		uid := fmt.Sprintf("m%d", i)
		reg.Publish(ep(uid, "addr-"+uid))
		reg.AddMember("svc", uid)
	}
	return reg
}

func balDial(ep proto.Endpoint) (Caller, error) {
	return &fakeCaller{uid: ep.ServiceUID, addr: ep.Address}, nil
}

func TestBalancerValidation(t *testing.T) {
	dial, _ := fakeDial(nil)
	if _, err := NewBalancer(nil, "svc", dial, BalancerOptions{}); err == nil {
		t.Fatal("NewBalancer accepted a nil registry")
	}
	if _, err := NewBalancer(NewEndpointRegistry(), "svc", nil, BalancerOptions{}); err == nil {
		t.Fatal("NewBalancer accepted a nil dial function")
	}
}

func TestBalancerClosedRejects(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("svc", "addr-svc"))
	dial, _ := fakeDial(nil)
	b, err := NewBalancer(reg, "svc", dial, BalancerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	if _, _, err := b.Infer(context.Background(), "x", 0); err == nil {
		t.Fatal("Infer succeeded on closed balancer")
	}
}

// TestBalancerInferCachesOneResolverPerMember: requests reach the picked
// member through its own resolver, dialed once and reused.
func TestBalancerInferCachesOneResolverPerMember(t *testing.T) {
	reg := balReg(2)
	dial, dials := fakeDial(nil)
	b, err := NewBalancer(reg, "svc", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	served := map[string]int{}
	for i := 0; i < 9; i++ {
		reply, _, err := b.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		served[reply.ServiceUID]++
	}
	if served["svc"] != 3 || served["m1"] != 3 || served["m2"] != 3 {
		t.Fatalf("served %v, want 3 each (round robin)", served)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("dials = %d, want one per member", n)
	}
}

// TestBalancerLeastLoadedPrefersIdleMember: a least-loaded picker over
// fresh reports routes away from the saturated members.
func TestBalancerLeastLoadedPrefersIdleMember(t *testing.T) {
	reg := balReg(2)
	now := time.Unix(1000, 0)
	reg.ReportLoad("svc", Load{Queued: 3, InFlight: 1, At: now})
	reg.ReportLoad("m1", Load{At: now})
	reg.ReportLoad("m2", Load{Queued: 1, At: now})
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Picker: loadbal.NewLeastLoaded(),
		Now:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reply, _, err := b.Infer(context.Background(), "quick", 8)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ServiceUID != "m1" {
		t.Fatalf("least-loaded balancer routed to %s, want the idle m1", reply.ServiceUID)
	}
}

func TestBalancerNoMembersPicksBase(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("svc", "addr-svc"))
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 4; i++ {
		if got := b.Pick(); got != "svc" {
			t.Fatalf("Pick = %q with no members, want svc", got)
		}
	}
}

// TestBalancerP2CPickDistribution pins the seeded probe sequence: with
// one member carrying a deep queue and fresh reports all around, p2c
// never routes to it — identical probes are nudged apart, so the hot
// member always loses its comparison — while blind rotation would send
// it a full quarter. The counts are exact: seeded splitmix64 walk, no
// wall clock.
func TestBalancerP2CPickDistribution(t *testing.T) {
	reg := balReg(3)
	now := time.Unix(1000, 0)
	for _, uid := range []string{"svc", "m1", "m3"} {
		reg.ReportLoad(uid, Load{Queued: 0, At: now})
	}
	reg.ReportLoad("m2", Load{Queued: 100, At: now}) // the hot member

	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed: 1,
		Now:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const picks = 1600
	got := map[string]int{}
	for i := 0; i < picks; i++ {
		got[b.Pick()]++
	}
	want := map[string]int{"svc": 490, "m1": 487, "m2": 0, "m3": 623}
	for uid, n := range want {
		if got[uid] != n {
			t.Fatalf("pick counts = %v, want %v (seeded sequence changed?)", got, want)
		}
	}
	// the property behind the pinned numbers: the hot member gets far
	// less than the 400 a load-blind rotation would send it
	if got["m2"] >= picks/4 {
		t.Fatalf("hot member got %d/%d picks — load-blind", got["m2"], picks)
	}

	// determinism: a same-seed balancer reproduces the sequence exactly
	b2, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed: 1,
		Now:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got2 := map[string]int{}
	for i := 0; i < picks; i++ {
		got2[b2.Pick()]++
	}
	for uid, n := range got {
		if got2[uid] != n {
			t.Fatalf("same-seed replay diverged: %v vs %v", got2, got)
		}
	}
}

// TestBalancerStaleReportsFallBackToRotation: when the load reports are
// older than the horizon the picker must not trust them — picks degrade
// to blind rotation, which spreads exactly evenly.
func TestBalancerStaleReportsFallBackToRotation(t *testing.T) {
	reg := balReg(3)
	reported := time.Unix(1000, 0)
	now := reported.Add(defaultLoadHorizon + time.Nanosecond) // 1 ns past the horizon
	reg.ReportLoad("svc", Load{Queued: 0, At: reported})
	reg.ReportLoad("m1", Load{Queued: 0, At: reported})
	reg.ReportLoad("m2", Load{Queued: 100, At: reported})
	reg.ReportLoad("m3", Load{Queued: 0, At: reported})

	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed: 1,
		Now:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := map[string]int{}
	for i := 0; i < 400; i++ {
		got[b.Pick()]++
	}
	for _, uid := range []string{"svc", "m1", "m2", "m3"} {
		if got[uid] != 100 {
			t.Fatalf("stale-report picks = %v, want an exact 100 each (rotation)", got)
		}
	}
	// exactly at the horizon the reports still count: p2c avoids the hot member
	now = reported.Add(defaultLoadHorizon)
	for i := 0; i < 400; i++ {
		if uid := b.Pick(); uid == "m2" {
			t.Fatalf("pick %d went to the hot member with reports at the horizon", i)
		}
	}
}

// TestBalancerLoadHorizonBoundary walks report ages across
// defaultLoadHorizon: up to and including the horizon the reports count and
// p2c never picks the hot member; past it, by as little as a nanosecond,
// picks rotate exactly evenly.
func TestBalancerLoadHorizonBoundary(t *testing.T) {
	for _, tc := range []struct {
		age   time.Duration
		fresh bool
	}{
		{0, true},
		{time.Second, true},
		{defaultLoadHorizon - time.Nanosecond, true},
		{defaultLoadHorizon, true},
		{defaultLoadHorizon + time.Nanosecond, false},
		{defaultLoadHorizon + time.Minute, false},
	} {
		t.Run(fmt.Sprintf("age=%v", tc.age), func(t *testing.T) {
			reg := balReg(3)
			reported := time.Unix(1000, 0)
			for _, uid := range []string{"svc", "m1", "m3"} {
				reg.ReportLoad(uid, Load{Queued: 0, At: reported})
			}
			reg.ReportLoad("m2", Load{Queued: 100, At: reported})
			now := reported.Add(tc.age)
			b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
				Seed: 1,
				Now:  func() time.Time { return now },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			got := map[string]int{}
			for i := 0; i < 400; i++ {
				got[b.Pick()]++
			}
			if tc.fresh && got["m2"] != 0 {
				t.Fatalf("picks = %v with %v-old reports, want none on the hot member", got, tc.age)
			}
			if !tc.fresh {
				for _, uid := range []string{"svc", "m1", "m2", "m3"} {
					if got[uid] != 100 {
						t.Fatalf("picks = %v with %v-old reports, want an exact 100 each (rotation)", got, tc.age)
					}
				}
			}
		})
	}
}

// TestBalancerNoTimebaseIgnoresLoad: without a Now source every report
// counts as stale — the balancer must still work, spreading by rotation.
func TestBalancerNoTimebaseIgnoresLoad(t *testing.T) {
	reg := balReg(1)
	reg.ReportLoad("svc", Load{Queued: 100, At: time.Unix(1000, 0)})
	reg.ReportLoad("m1", Load{Queued: 0, At: time.Unix(1000, 0)})
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := map[string]int{}
	for i := 0; i < 100; i++ {
		got[b.Pick()]++
	}
	if got["svc"] != 50 || got["m1"] != 50 {
		t.Fatalf("no-timebase picks = %v, want 50/50 rotation", got)
	}
}

// TestBalancerMembershipChurnDuringPick hammers Pick while the
// autoscaler's membership calls run concurrently: the atomically-swapped
// immutable view must keep every pick valid (base or a member that was
// alive at some recent instant) with no torn reads — the race detector
// is the other half of this test.
func TestBalancerMembershipChurnDuringPick(t *testing.T) {
	reg := balReg(4)
	now := time.Unix(1000, 0)
	valid := map[string]bool{"svc": true, "m1": true, "m2": true, "m3": true, "m4": true}
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed: 7,
		Now:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			uid := fmt.Sprintf("m%d", i%4+1)
			reg.RemoveMember("svc", uid)
			reg.ReportLoad(uid, Load{Queued: i % 5, At: now})
			reg.AddMember("svc", uid)
		}
	}()

	var bad atomic.Value
	var pickers sync.WaitGroup
	for g := 0; g < 4; g++ {
		pickers.Add(1)
		go func() {
			defer pickers.Done()
			for i := 0; i < 20000; i++ {
				if uid := b.Pick(); !valid[uid] {
					bad.Store(uid)
					return
				}
			}
		}()
	}
	pickers.Wait()
	close(stop)
	<-churnDone
	if u := bad.Load(); u != nil {
		t.Fatalf("Pick returned unknown UID %q during churn", u)
	}
}

// TestBalancerPickZeroAllocs enforces the acceptance budget: the pick
// path — view load, two probes, fallback check — allocates nothing.
func TestBalancerPickZeroAllocs(t *testing.T) {
	reg := balReg(7)
	now := time.Unix(1000, 0)
	reg.ReportLoad("svc", Load{Queued: 1, At: now})
	for i := 1; i <= 7; i++ {
		reg.ReportLoad(fmt.Sprintf("m%d", i), Load{Queued: i, At: now})
	}
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed: 3,
		Now:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if avg := testing.AllocsPerRun(1000, func() { b.Pick() }); avg != 0 {
		t.Fatalf("Pick allocates %.1f objects per call, want 0", avg)
	}
}

// BenchmarkBalancerPick measures the constant-time pick path over an
// 8-wide group (base + 7 members) with fresh load reports.
func BenchmarkBalancerPick(b *testing.B) {
	reg := balReg(7)
	now := time.Unix(1000, 0)
	reg.ReportLoad("svc", Load{Queued: 1, At: now})
	for i := 1; i <= 7; i++ {
		reg.ReportLoad(fmt.Sprintf("m%d", i), Load{Queued: i, At: now})
	}
	bal, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed: 3,
		Now:  func() time.Time { return now },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bal.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bal.Pick()
	}
}
