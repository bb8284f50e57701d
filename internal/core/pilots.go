package core

import (
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/states"
)

// PilotManager acquires and tracks pilots.
type PilotManager struct {
	sess *Session

	mu     sync.Mutex
	seq    int
	pilots map[string]*pilot.Pilot
}

// Submit launches a pilot on the described platform.
func (pm *PilotManager) Submit(desc spec.PilotDescription) (*pilot.Pilot, error) {
	plat := pm.sess.topo.Platform(desc.Platform)
	if plat == nil {
		return nil, fmt.Errorf("core: unknown platform %q", desc.Platform)
	}
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	pm.mu.Lock()
	pm.seq++
	seq := pm.seq
	pm.mu.Unlock()
	if desc.UID == "" {
		if pm.sess.jw != nil {
			// Session-scoped UIDs keep attachable pilots of concurrent
			// journaled sessions apart in the package-level live registry.
			desc.UID = fmt.Sprintf("%s.pilot.%s.%04d", pm.sess.uid, desc.Platform, seq)
		} else {
			desc.UID = fmt.Sprintf("pilot.%s.%04d", desc.Platform, seq)
		}
	}
	// WAL intent: the description lands in the journal before Launch, so
	// pilot state transitions (which begin during Launch) always replay
	// against a known UID.
	pm.sess.journalAppend(journal.KindPilot, journal.PilotBody{UID: desc.UID, Desc: desc})
	cfg := pilot.Config{
		Clock:       pm.sess.clock,
		Src:         pm.sess.src.Derive(fmt.Sprintf("pilot.%s.%d", desc.Platform, seq)),
		Net:         pm.sess.net,
		Platform:    plat,
		SchedPolicy: pm.sess.schedPol,
		Hooks:       pm.sess.pilotHooks(desc.UID),
		Attach:      pm.sess.jw != nil,
	}
	if pm.sess.fastBoot {
		cfg.BootTime = rng.ConstDuration(0)
		cfg.PublishOverhead = rng.ConstDuration(0)
		cfg.LaunchModel = &platform.LaunchModel{}
	}
	p, err := pilot.Launch(cfg, desc)
	if err != nil {
		return nil, err
	}
	pm.track(p)
	return p, nil
}

// track records a launched (or, in Recover, adopted) pilot.
func (pm *PilotManager) track(p *pilot.Pilot) {
	pm.mu.Lock()
	pm.pilots[p.UID()] = p
	pm.mu.Unlock()
}

// Get returns a pilot by UID.
func (pm *PilotManager) Get(uid string) (*pilot.Pilot, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p, ok := pm.pilots[uid]
	return p, ok
}

// List returns all pilots.
func (pm *PilotManager) List() []*pilot.Pilot {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]*pilot.Pilot, 0, len(pm.pilots))
	for _, p := range pm.pilots {
		out = append(out, p)
	}
	return out
}

func (pm *PilotManager) shutdownAll() {
	for _, p := range pm.List() {
		if p.State() == states.PilotActive {
			_ = p.Shutdown()
		}
	}
}
