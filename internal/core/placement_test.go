package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pilot"
	"repro/internal/router"
	"repro/internal/simtime"
	"repro/internal/spec"
)

var errDispatch = errors.New("dispatch refused")

// TestPlacerPlace drives the placement engine alone — a placer over three
// real pilots, no manager — through every outcome place has: the cases the
// TaskManager, the ServiceManager, the autoscaler and Recover all share,
// checked once here instead of once per caller.
func TestPlacerPlace(t *testing.T) {
	const (
		accept       = iota // dispatch succeeds
		refuse              // dispatch fails, the pilot stays live
		dieFirst            // the first pilot handed out dies in dispatch
		dieAllButOne        // every pilot but the last one left dies in dispatch
	)
	cases := []struct {
		name       string
		attach     int    // pilots attached, of three launched
		dead       []int  // pilots shut down before place
		closed     bool   // manager closed before place
		pin        int    // 1-based pilot the description is pinned to; -1 = an unknown UID
		exclude    []int  // standby spread: pilots to avoid
		rounds     int    // place calls (default 1); the last is the one checked
		dispatch   int    // dispatch behaviour
		want       int    // index of the pilot place returns; -1 = error
		wantErr    error  // errors.Is target (nil: any error)
		wantInErr  string // substring of the error text
		dispatches int    // dispatch calls made by the checked place
	}{
		{name: "unpinned takes the rotation's first", attach: 3, want: 0, dispatches: 1},
		{name: "unpinned rotates", attach: 3, rounds: 2, want: 1, dispatches: 1},
		{name: "unpinned skips a dead pilot", attach: 3, dead: []int{0}, want: 1, dispatches: 1},
		{name: "pinned live", attach: 3, pin: 3, want: 2, dispatches: 1},
		{name: "pinned dead", attach: 3, dead: []int{2}, pin: 3, want: -1, wantInErr: "pinned to pilot"},
		{name: "pinned unknown", attach: 3, pin: -1, want: -1, wantInErr: "unknown pilot"},
		{name: "exclusion steers away", attach: 3, exclude: []int{0, 1}, want: 2, dispatches: 1},
		{name: "exclusion exhausted falls back to the full set", attach: 3, exclude: []int{0, 1, 2}, want: 0, dispatches: 1},
		{name: "exclusion of every live pilot falls back", attach: 3, dead: []int{2}, exclude: []int{0, 1}, want: 0, dispatches: 1},
		{name: "no live pilot", attach: 3, dead: []int{0, 1, 2}, want: -1, wantErr: errNoLivePilots},
		{name: "no pilot attached", attach: 0, want: -1, wantErr: errNoLivePilots, wantInErr: "has no pilots"},
		{name: "closed", attach: 3, closed: true, want: -1, wantErr: ErrSessionClosed},
		{name: "closed beats pinned", attach: 3, closed: true, pin: 1, want: -1, wantErr: ErrSessionClosed},
		{name: "refusal on a live pilot surfaces", attach: 3, dispatch: refuse, want: -1, wantErr: errDispatch, dispatches: 1},
		// The round-robin cursor indexes the live set: after pilot 0 took
		// step 0 and died, step 1 of [1 2] is pilot 2, and step 2 of [1] is
		// pilot 1.
		{name: "pilot dies in dispatch: one re-route", attach: 3, dispatch: dieFirst, want: 2, dispatches: 2},
		{name: "each dead pilot costs one re-route", attach: 3, dispatch: dieAllButOne, want: 1, dispatches: 3},
		{name: "pinned pilot dies in dispatch: no re-route", attach: 3, pin: 1, dispatch: dieFirst, want: -1, wantErr: errDispatch, dispatches: 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(SessionConfig{
				Seed: 11, Clock: simtime.NewScaled(100000, DefaultOrigin), FastBoot: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var pilots [3]*pilot.Pilot
			for i := range pilots {
				if pilots[i], err = s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1}); err != nil {
					t.Fatal(err)
				}
			}
			rt, _ := router.ByName("")
			pl := &placer{kind: "task", rt: rt, pilots: pilots[:tc.attach], closed: tc.closed}
			for _, i := range tc.dead {
				if err := pilots[i].Shutdown(); err != nil {
					t.Fatal(err)
				}
			}
			d := spec.TaskDescription{UID: "t.1", Cores: 1}
			switch {
			case tc.pin > 0:
				d.Pilot = pilots[tc.pin-1].UID()
			case tc.pin < 0:
				d.Pilot = "pilot.nowhere"
			}
			var exclude map[string]bool
			for _, i := range tc.exclude {
				if exclude == nil {
					exclude = map[string]bool{}
				}
				exclude[pilots[i].UID()] = true
			}

			var got *pilot.Pilot
			dispatches := 0
			for r := 0; r < tc.rounds || r == 0; r++ {
				dispatches = 0
				got, err = pl.place(&d, exclude, func(p *pilot.Pilot) error {
					dispatches++
					switch {
					case tc.dispatch == refuse:
						return errDispatch
					case tc.dispatch == dieFirst && dispatches == 1,
						tc.dispatch == dieAllButOne && dispatches < tc.attach:
						if err := p.Shutdown(); err != nil {
							t.Error(err)
						}
						return errDispatch
					}
					return nil
				})
			}

			if dispatches != tc.dispatches {
				t.Errorf("dispatch ran %d times, want %d", dispatches, tc.dispatches)
			}
			if tc.want < 0 {
				if err == nil {
					t.Fatalf("placed on %s, want an error", got.UID())
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Errorf("err = %v, want %v", err, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantInErr) {
					t.Errorf("err = %q, want it to mention %q", err, tc.wantInErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != pilots[tc.want] {
				t.Errorf("placed on %s, want pilot %d (%s)", got.UID(), tc.want, pilots[tc.want].UID())
			}
		})
	}
}
