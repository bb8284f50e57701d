package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/msgq"
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
	picker, err := loadbal.PickerByName("least-loaded", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Picker: picker,
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
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Picker: loadbal.NewP2C(1)})
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
		Picker: loadbal.NewP2C(1),
		Now:    func() time.Time { return now },
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
		Picker: loadbal.NewP2C(1),
		Now:    func() time.Time { return now },
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
		Picker: loadbal.NewP2C(1),
		Now:    func() time.Time { return now },
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
				Picker: loadbal.NewP2C(1),
				Now:    func() time.Time { return now },
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
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Picker: loadbal.NewP2C(1)})
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
		Picker: loadbal.NewP2C(7),
		Now:    func() time.Time { return now },
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
		Picker: loadbal.NewP2C(3),
		Now:    func() time.Time { return now },
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
		Picker: loadbal.NewP2C(3),
		Now:    func() time.Time { return now },
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

// closeFake is a backend connection that counts its closes. When parked
// is set its Infer signals there, waits until the connection is closed and
// then fails as a closed msgq connection does.
type closeFake struct {
	addr   string
	parked chan<- struct{}
	shut   chan struct{} // closed by the first Close
	closes atomic.Int32
}

func (f *closeFake) Infer(context.Context, string, int) (proto.InferenceReply, metrics.Breakdown, error) {
	if f.parked != nil {
		f.parked <- struct{}{}
		<-f.shut
		return proto.InferenceReply{}, metrics.Breakdown{}, fmt.Errorf("%w: %s", msgq.ErrClosed, f.addr)
	}
	return proto.InferenceReply{ServiceUID: "svc", Text: f.addr}, metrics.Breakdown{}, nil
}

func (f *closeFake) Close() error {
	if f.closes.Add(1) == 1 {
		close(f.shut)
	}
	return nil
}

// awaiters counts the callers parked in AwaitNewer on uid.
func awaiters(reg *EndpointRegistry, uid string) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if e := reg.entries[uid]; e != nil {
		return len(e.waiters)
	}
	return 0
}

// TestBalancerCloseVsInferSingleWinnerRace: Close ends every Infer it races —
// one whose request is in flight, one waiting for the UID's first
// publication, one whose first dial lands after Close — within a guard,
// and every connection dialled is closed exactly once, by Close or by the
// Infer that finds the balancer closed.
func TestBalancerCloseVsInferSingleWinnerRace(t *testing.T) {
	const guard = 2 * time.Second
	for _, tc := range []struct {
		name   string
		dials  int  // 0: the UID is never published
		inCall bool // the dialled connection parks its request until closed
	}{
		{name: "in-flight", dials: 1, inCall: true},
		{name: "first-publication"},
		{name: "first-dial", dials: 1}, // the dial returns only after Close
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewEndpointRegistry()
			if tc.dials > 0 {
				reg.Publish(ep("svc", "addr-svc"))
			}
			var mu sync.Mutex
			var dialled []*closeFake
			ready, gate := make(chan struct{}, 1), make(chan struct{})
			dial := func(e proto.Endpoint) (Caller, error) {
				f := &closeFake{addr: e.Address, shut: make(chan struct{})}
				mu.Lock()
				dialled = append(dialled, f)
				mu.Unlock()
				if tc.inCall {
					f.parked = ready
				} else {
					ready <- struct{}{}
					<-gate
				}
				return f, nil
			}
			b, err := NewBalancer(reg, "svc", dial, BalancerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, _, err := b.Infer(context.Background(), "x", 0)
				done <- err
			}()
			if tc.dials > 0 {
				<-ready
			} else {
				for awaiters(reg, "svc") == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			_ = b.Close()
			close(gate)
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Infer succeeded across Close")
				}
			case <-time.After(guard):
				t.Fatalf("Infer still parked %v after Close", guard)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(dialled) != tc.dials {
				t.Fatalf("dialled %d connections, want %d", len(dialled), tc.dials)
			}
			for i, f := range dialled {
				if n := f.closes.Load(); n != 1 {
					t.Fatalf("connection %d closed %d times, want exactly once", i, n)
				}
			}
		})
	}
}

// TestBalancerMemberFailoverRetriesSameMember: a request picked for a
// replica member whose address dies is retried on that member once it is
// re-published, answered by the new endpoint, and never moves to (or
// redials) the base.
func TestBalancerMemberFailoverRetriesSameMember(t *testing.T) {
	reg := balReg(1)
	var dead atomic.Value
	dead.Store("")
	var mu sync.Mutex
	dials := map[string]int{}
	dial := func(e proto.Endpoint) (Caller, error) {
		mu.Lock()
		dials[e.Address]++
		mu.Unlock()
		return &fakeCaller{uid: e.ServiceUID, addr: e.Address, dead: &dead}, nil
	}
	b, err := NewBalancer(reg, "svc", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ { // warm svc, then m1
		if _, _, err := b.Infer(ctx, "x", 0); err != nil {
			t.Fatal(err)
		}
	}

	dead.Store("addr-m1")
	type answer struct {
		reply proto.InferenceReply
		err   error
	}
	answers := make(chan answer, 2)
	go func() {
		for i := 0; i < 2; i++ { // svc, then m1
			reply, _, err := b.Infer(ctx, "x", 0)
			answers <- answer{reply, err}
		}
	}()
	if a := <-answers; a.err != nil || a.reply.ServiceUID != "svc" {
		t.Fatalf("base request = %+v, %v", a.reply, a.err)
	}
	for awaiters(reg, "m1") == 0 {
		time.Sleep(time.Millisecond)
	}
	reg.Publish(ep("m1", "addr-m1-new"))
	select {
	case a := <-answers:
		if a.err != nil || a.reply.ServiceUID != "m1" || a.reply.Text != "addr-m1-new" {
			t.Fatalf("failed-over request = %+v, %v; want the new m1", a.reply, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member request never failed over")
	}
	if n := b.Reresolved(); n != 1 {
		t.Fatalf("Reresolved = %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[string]int{"addr-svc": 1, "addr-m1": 1, "addr-m1-new": 1}; fmt.Sprint(dials) != fmt.Sprint(want) {
		t.Fatalf("dials = %v, want %v", dials, want)
	}
}
