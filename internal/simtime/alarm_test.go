package simtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

// sleeping is v's count of pending sleeps, alarms included.
func sleeping(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sleeping
}

// TestAlarmFireVsCancelSingleWinnerRace: a Cancel races the advance that
// fires the alarm. Exactly one wins: the follower wakes at the deadline
// holding a runner token and Cancel reports false, or Cancel reports true,
// the follower stays parked and the clock does not move.
func TestAlarmFireVsCancelSingleWinnerRace(t *testing.T) {
	const d = time.Second
	var fired, cancelled int
	for round := 0; round < 500; round++ {
		v := NewVirtualAuto(origin)
		a := v.NewAlarm()
		woke := make(chan bool, 1)
		go func() { woke <- a.Wait() }()
		v.AddRunner()
		ticket := a.Set(d)
		// Each side goes first on every other round, so both win often.
		won := make(chan bool, 1)
		if round%2 == 0 {
			go func() { won <- a.Cancel(ticket) }()
			v.DoneRunner()
		} else {
			go v.DoneRunner()
			won <- a.Cancel(ticket)
		}
		if <-won {
			cancelled++
			if n := sleeping(v); n != 0 {
				t.Fatalf("round %d: cancelled, %d sleeps pending, want 0", round, n)
			}
			if !v.Now().Equal(origin) {
				t.Fatalf("round %d: cancelled, clock at %v, want the origin", round, v.Now())
			}
			a.Close()
			if <-woke {
				t.Fatalf("round %d: the follower woke after Cancel won", round)
			}
			continue
		}
		fired++
		if !<-woke {
			t.Fatalf("round %d: Cancel lost, yet the follower's Wait returned false", round)
		}
		if got := running(v); got != 1 {
			t.Fatalf("round %d: %d running after the fire, want the follower's 1", round, got)
		}
		if want := origin.Add(d); !v.Now().Equal(want) {
			t.Fatalf("round %d: fired at %v, want %v", round, v.Now(), want)
		}
		v.DoneRunner()
	}
	t.Logf("%d fired, %d cancelled", fired, cancelled)
}

// TestAlarmStaleTicketCancelsNothingRace: a ticket names one arming. After
// the alarm fired, or was cancelled, and was set again, the old ticket
// cancels nothing, and the new arming fires at its own deadline.
func TestAlarmStaleTicketCancelsNothingRace(t *testing.T) {
	v := held(t)
	a := v.NewAlarm()
	woke := make(chan time.Time, 1)
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		for a.Wait() {
			woke <- v.Now()
			v.DoneRunner() // the token the fire handed over
		}
	}()
	defer func() {
		a.Close()
		<-followed
	}()

	// A cancelled arming's ticket is stale once the alarm is set again.
	first := a.Set(time.Second)
	if !a.Cancel(first) {
		t.Fatal("Cancel of a pending arming reported false")
	}
	second := a.Set(2 * time.Second)
	if a.Cancel(first) {
		t.Fatal("a cancelled arming's ticket cancelled the next arming")
	}
	if n := sleeping(v); n != 1 {
		t.Fatalf("%d sleeps pending after the stale Cancel, want the second arming", n)
	}

	// Let the second arming fire; its ticket is stale once it is set again.
	v.Sleep(3 * time.Second)
	if at := <-woke; !at.Equal(origin.Add(2 * time.Second)) {
		t.Fatalf("the second arming fired at %v, want origin+2s", at)
	}
	third := a.Set(time.Second)
	if a.Cancel(second) || a.Cancel(first) {
		t.Fatal("a fired arming's ticket cancelled a later arming")
	}
	v.Sleep(2 * time.Second)
	if at := <-woke; !at.Equal(origin.Add(4 * time.Second)) {
		t.Fatalf("the third arming fired at %v, want origin+4s", at)
	}
	if a.Cancel(third) {
		t.Fatal("Cancel of a fired arming reported true")
	}
}

// TestAlarmFiredFollowerHoldsTheClockRace: the fire hands the follower a
// runner token, so a later sleeper does not fire, and the clock does not
// move, until the follower parks again.
func TestAlarmFiredFollowerHoldsTheClockRace(t *testing.T) {
	v := NewVirtualAuto(origin)
	a := v.NewAlarm()
	var mu sync.Mutex
	var events []string
	record := func(e string) {
		mu.Lock()
		events = append(events, e+" at "+v.Now().Sub(origin).String())
		mu.Unlock()
	}
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		if !a.Wait() {
			t.Error("the follower's Wait returned false")
			return
		}
		record("follower woke")
		time.Sleep(20 * time.Millisecond) // wall time: nothing may advance meanwhile
		record("follower worked")
		v.Sleep(500 * time.Millisecond)
		record("follower slept")
		v.DoneRunner()
	}()
	v.AddRunner()
	a.Set(time.Second)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		v.Sleep(1200 * time.Millisecond)
		record("sleeper woke")
	})
	v.DoneRunner()
	<-followed
	<-done
	want := []string{
		"follower woke at 1s",
		"follower worked at 1s",
		"sleeper woke at 1.2s",
		"follower slept at 1.5s",
	}
	if len(events) != len(want) {
		t.Fatalf("events %q, want %q", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events %q, want %q", events, want)
		}
	}
}

// TestAlarmLeaderFollowersRace runs a seeded open-loop schedule the way
// loadgen does: the leader sets an idle follower's alarm for the next
// arrival, serves its own arrival with a sleep, and takes the alarm back
// when it is done in time. Every arrival must start at its own instant and
// every service must end at its arrival plus its service time, however the
// crew hands the schedule over; at the end the idle followers are closed and
// exit (leakcheck fails the package otherwise).
func TestAlarmLeaderFollowersRace(t *testing.T) {
	const arrivals = 2000
	src := rng.New(11)
	gaps := make([]time.Duration, arrivals)
	service := make([]time.Duration, arrivals)
	for i := range gaps {
		gaps[i] = time.Duration(src.Exponential(1e6))
		service[i] = time.Duration(src.Exponential(2e6)) // outlasts the gap often
	}

	v := NewVirtualAuto(origin)
	type member struct {
		alarm *Alarm
		idx   int
	}
	var (
		mu      sync.Mutex
		idle    []*member
		crew    sync.WaitGroup
		ended   bool
		started = make([]time.Duration, arrivals)
		ends    = make([]time.Duration, arrivals)
		handed  int
	)
	var lead func(i int)
	follow := func(m *member) {
		defer crew.Done()
		for m.alarm.Wait() {
			mu.Lock()
			handed++
			mu.Unlock()
			lead(m.idx)
			mu.Lock()
			stay := !ended
			if stay {
				idle = append(idle, m)
			}
			mu.Unlock()
			v.DoneRunner()
			if !stay {
				return
			}
		}
	}
	set := func(i int) (*member, uint64) {
		mu.Lock()
		var m *member
		if n := len(idle); n > 0 {
			m, idle = idle[n-1], idle[:n-1]
		}
		mu.Unlock()
		if m == nil {
			m = &member{alarm: v.NewAlarm()}
			crew.Add(1)
			go follow(m)
		}
		m.idx = i
		return m, m.alarm.Set(gaps[i])
	}
	lead = func(i int) {
		for ; ; i++ {
			started[i] = v.Now().Sub(origin)
			if i+1 == arrivals {
				mu.Lock()
				ended = true
				for _, m := range idle {
					m.alarm.Close()
				}
				idle = nil
				mu.Unlock()
				v.Sleep(service[i])
				ends[i] = v.Now().Sub(origin)
				return
			}
			next := v.Now().Add(gaps[i+1])
			m, ticket := set(i + 1)
			v.Sleep(service[i])
			ends[i] = v.Now().Sub(origin)
			if !m.alarm.Cancel(ticket) {
				return
			}
			mu.Lock()
			idle = append(idle, m)
			mu.Unlock()
			v.Sleep(next.Sub(v.Now()))
		}
	}
	v.AddRunner()
	set(0)
	v.DoneRunner()
	crew.Wait()

	var at time.Duration
	for i := range gaps {
		at += gaps[i]
		if started[i] != at {
			t.Fatalf("arrival %d started at %v, want %v", i, started[i], at)
		}
		if want := at + service[i]; ends[i] != want {
			t.Fatalf("arrival %d ended at %v, want %v", i, ends[i], want)
		}
	}
	if handed <= 1 || handed >= arrivals {
		t.Fatalf("%d of %d arrivals woke a follower; the schedule should hand over sometimes, not always", handed, arrivals)
	}
	t.Logf("%d of %d arrivals woke a follower", handed, arrivals)
}
