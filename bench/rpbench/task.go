package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

const (
	// taskRoundTasks is the fixed size of one task_journal round, about a
	// quarter of a second. A session holds ~12 kB of RSS per task until it
	// closes (README, hazard 4), so the size stays modest and the run
	// repeats rounds instead.
	taskRoundTasks = 4000
	// taskChunk is how many descriptions one TaskManager.Submit call takes.
	taskChunk = 512
	// taskSetups is how many extra times task_journal builds and closes its
	// session to time set-up (under a millisecond each); every round adds
	// one more sample.
	taskSetups = 60
	// recoverTasks is the size of the journaled campaign whose WAL the
	// task_recover workload recovers. Recovery time and memory are linear
	// in it (74 us and 14 kB per task at 2 k, 10 k and 40 k tasks), so a
	// small WAL recovered many times measures the same cost per record as
	// a large one recovered once.
	recoverTasks = 2000
	// recoverSetups is how many times task_recover writes its WAL to time
	// set-up; the last WAL is the one recovered.
	recoverSetups = 5
)

// taskSession is one journaled (or, for the no-journal contrast, volatile)
// session with the two hetero pilots attached.
type taskSession struct {
	sess   *core.Session
	pilots []*pilot.Pilot
	// sessionNewMs and pilotSubmitMs split the set-up for the core.* layer.
	sessionNewMs, pilotSubmitMs float64
}

// newTaskSession builds the session every task workload runs on: a 10^6x
// scaled clock (one simulated hour of fsync batching is 3.6 ms of wall
// time), fast boot, round-robin routing over a fat and a thin 32-node
// hetero pilot. walPath "" leaves the journal out.
func newTaskSession(seed uint64, walPath string, tr *Tracer, parent uint64) (*taskSession, error) {
	ts := &taskSession{}
	t0 := time.Now()
	var err error
	tr.Do("core.NewSession", parent, func() {
		ts.sess, err = core.NewSession(core.SessionConfig{
			Seed:              seed,
			Clock:             simtime.NewScaled(1e6, core.DefaultOrigin),
			FastBoot:          true,
			JournalPath:       walPath,
			JournalFlushEvery: time.Hour,
		})
	})
	if err != nil {
		return nil, err
	}
	ts.sessionNewMs = msSince(t0)
	t1 := time.Now()
	for i := 0; i < 2; i++ {
		var p *pilot.Pilot
		tr.Do("core.PilotManager.Submit", parent, func() {
			p, err = ts.sess.PilotManager().Submit(spec.PilotDescription{Platform: "hetero", Nodes: 32})
		})
		if err != nil {
			ts.sess.Close()
			return nil, err
		}
		ts.sess.TaskManager().AddPilot(p)
		ts.pilots = append(ts.pilots, p)
	}
	ts.pilotSubmitMs = msSince(t1)
	return ts, nil
}

// release shuts down what Session.Abandon leaves running for a recovery
// to find: the pilots and the network.
func (ts *taskSession) release() error {
	for _, p := range ts.pilots {
		if err := p.Shutdown(); err != nil {
			return fmt.Errorf("pilot %s shutdown: %w", p.UID(), err)
		}
	}
	return ts.sess.Network().Close()
}

// awaitJournal waits until the session's journal holds every record the
// campaign of n tasks writes. TaskManager.Wait returns when the tasks are
// DONE, which can be a few appends before their last transitions are
// journaled; closing or abandoning the session at that moment would cut
// them off and leave a WAL whose length differs from run to run. It
// returns the append count, which falls short only if the records never
// came.
func awaitJournal(ts *taskSession, n int) int64 {
	want := journalRecords(n)
	deadline := time.Now().Add(5 * time.Second)
	for {
		appends, _ := ts.sess.Journal().Stats()
		if appends >= want || time.Now().After(deadline) {
			return appends
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// taskStream is one round's generated input and what came back.
type taskStream struct {
	n        int
	ran      atomic.Int64
	begin    time.Time
	startAt  []atomic.Int64 // payload start, ns since begin, by task index
	submitAt []int64        // the Submit call that carried the task, ns since begin
	tasks    []*core.Task

	submitWall, drainWall time.Duration
}

// runTaskStream submits n Func tasks (Cores 1 + i%4) in chunks through
// TaskManager.Submit and waits for all of them.
func runTaskStream(ctx context.Context, ts *taskSession, n int, tr *Tracer, parent uint64) (*taskStream, error) {
	st := &taskStream{n: n, startAt: make([]atomic.Int64, n), submitAt: make([]int64, n)}
	descs := make([]spec.TaskDescription, n)
	for i := range descs {
		i := i
		descs[i] = spec.TaskDescription{
			Name:  "rpbench-task",
			Cores: 1 + i%4,
			Func: func(context.Context) error {
				st.startAt[i].Store(int64(time.Since(st.begin)))
				st.ran.Add(1)
				return nil
			},
		}
	}
	tm := ts.sess.TaskManager()
	st.tasks = make([]*core.Task, 0, n)
	st.begin = time.Now()
	for lo := 0; lo < n; lo += taskChunk {
		hi := lo + taskChunk
		if hi > n {
			hi = n
		}
		at := int64(time.Since(st.begin))
		for i := lo; i < hi; i++ {
			st.submitAt[i] = at
		}
		var got []*core.Task
		var err error
		tr.Do("core.TaskManager.Submit", parent, func() { got, err = tm.Submit(ctx, descs[lo:hi]...) })
		if err != nil {
			return nil, fmt.Errorf("submit chunk at %d: %w", lo, err)
		}
		st.tasks = append(st.tasks, got...)
	}
	st.submitWall = time.Since(st.begin)
	var err error
	tr.Do("core.TaskManager.Wait", parent, func() { err = tm.Wait(ctx, st.tasks...) })
	if err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	st.drainWall = time.Since(st.begin) - st.submitWall
	return st, nil
}

// check verifies every task ran exactly once and ended DONE.
func (st *taskStream) check(ph *phase, what string) {
	if got := st.ran.Load(); got != int64(st.n) {
		ph.violate("%s: Func counter %d, want %d", what, got, st.n)
	}
	notDone := st.n - len(st.tasks)
	for _, t := range st.tasks {
		if t.State() != states.TaskDone {
			notDone++
		}
	}
	if notDone != 0 {
		ph.violate("%s: %d of %d tasks not DONE", what, notDone, st.n)
	}
}

// startLatencies returns each task's wall time from the Submit call that
// carried it to the start of its payload, sorted.
func (st *taskStream) startLatencies() []time.Duration {
	lats := make([]time.Duration, st.n)
	for i := range lats {
		lats[i] = time.Duration(st.startAt[i].Load() - st.submitAt[i])
	}
	sortDurations(lats)
	return lats
}

// measureTaskJournal repeats a journaled task campaign for the given time:
// fresh session and WAL each round, fixed task count.
func measureTaskJournal(cfg runConfig, seconds float64, tr *Tracer, hp *hostProbe) (*phase, error) {
	ctx := context.Background()
	ph := newPhase()
	n := cfg.scaled(taskRoundTasks)
	wal := filepath.Join(cfg.TmpDir, "task_journal.wal")
	defer os.Remove(wal)

	var setups, rawSetups []float64
	hp.Sample()
	for i := 0; i < cfg.reps(taskSetups); i++ {
		_ = os.Remove(wal)
		t0 := time.Now()
		ts, err := newTaskSession(cfg.Seed, wal, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rawSetups = append(rawSetups, time.Since(t0).Seconds())
		ts.sess.Close()
	}
	slowdown := hp.Lap()
	for _, s := range rawSetups {
		setups = append(setups, s/slowdown)
	}

	var sessNew, pilotSub, submitUS, drainUS, p50s, p90s, rawP50s, rawP90s []float64
	var records, walBytes, appends, fsyncs float64
	sampler := startGoroutineSampler()
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < seconds; round++ {
		if err := os.Remove(wal); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		root, endRoot := tr.Start("task_journal.round", 0)
		t0 := time.Now()
		ts, err := newTaskSession(cfg.Seed, wal, tr, root)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		setup := time.Since(t0).Seconds()

		before := readCounters()
		st, err := runTaskStream(ctx, ts, n, tr, root)
		if err != nil {
			ts.sess.Close()
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		ph.counters = ph.counters.add(readCounters().sub(before))
		a := awaitJournal(ts, n)
		_, s := ts.sess.Journal().Stats()
		tr.Do("core.Session.Close", root, ts.sess.Close)
		endRoot()
		slowdown = hp.Lap()

		wall := st.submitWall + st.drainWall
		ph.wall += wall
		ph.attempted += int64(n)
		ph.completed += st.ran.Load()
		ph.addRound(float64(n)/wall.Seconds(), slowdown)
		rawSetups = append(rawSetups, setup)
		setups = append(setups, setup/slowdown)
		sessNew = append(sessNew, ts.sessionNewMs)
		pilotSub = append(pilotSub, ts.pilotSubmitMs)
		submitUS = append(submitUS, float64(st.submitWall)/1e3/float64(n))
		drainUS = append(drainUS, float64(st.drainWall)/1e3/float64(n))
		st.check(ph, fmt.Sprintf("round %d", round))
		lats := st.startLatencies()
		rawP50s, rawP90s = append(rawP50s, durQuantileUS(lats, 0.5)), append(rawP90s, durQuantileUS(lats, 0.9))
		p50s, p90s = append(p50s, durQuantileUS(lats, 0.5)/slowdown), append(p90s, durQuantileUS(lats, 0.9)/slowdown)
		if a != journalRecords(n) {
			ph.violate("round %d: %d journal records, golden.json pins %d", round, a, journalRecords(n))
		}
		if round == 0 {
			records, appends, fsyncs = float64(a), float64(a), float64(s)
			walBytes = float64(fileSize(wal))
		}
	}
	ph.goroutinesPeak = sampler.Stop()
	ph.failed = ph.attempted - ph.completed
	ph.setupS, ph.rawSetupS = median(setups), median(rawSetups)
	ph.latP50, ph.latP90 = median(p50s), median(p90s)
	ph.rawLatP50, ph.rawLatP90 = median(rawP50s), median(rawP90s)

	ph.extra["core.session_new_ms"] = median(sessNew)
	ph.extra["core.pilot_submit_ms"] = median(pilotSub)
	ph.extra["core.task_submit_us_per_op"] = median(submitUS)
	ph.extra["core.task_drain_us_per_op"] = median(drainUS)
	ph.extra["journal.records"] = records
	ph.extra["journal.records_per_task"] = records / float64(n)
	ph.extra["journal.bytes_per_task"] = walBytes / float64(n)
	ph.extra["journal.appends"] = appends
	ph.extra["journal.fsyncs"] = fsyncs
	return ph, nil
}

// writeRecoverWAL runs a journaled campaign of n tasks to completion and
// abandons the session: the WAL at path is what a recovery then has to
// read. The caller releases the session's pilots and network.
func writeRecoverWAL(ctx context.Context, cfg runConfig, path string, n int, tr *Tracer, parent uint64, ph *phase) (*taskSession, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	ts, err := newTaskSession(cfg.Seed, path, tr, parent)
	if err != nil {
		return nil, err
	}
	st, err := runTaskStream(ctx, ts, n, tr, parent)
	if err != nil {
		ts.sess.Close()
		return nil, err
	}
	st.check(ph, "WAL campaign")
	if a := awaitJournal(ts, n); a != journalRecords(n) {
		ph.violate("WAL campaign: %d journal records, golden.json pins %d", a, journalRecords(n))
	}
	tr.Do("core.Session.Abandon", parent, ts.sess.Abandon)
	return ts, nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// measureTaskRecover writes a WAL, then repeats core.Recover on a fresh
// copy of it for the given time. Each recovery starts a new incarnation of
// the session, which is abandoned again before the next.
func measureTaskRecover(cfg runConfig, seconds float64, tr *Tracer, hp *hostProbe) (*phase, error) {
	ctx := context.Background()
	ph := newPhase()
	n := cfg.scaled(recoverTasks)
	pristine := filepath.Join(cfg.TmpDir, "task_recover.wal")
	work := filepath.Join(cfg.TmpDir, "task_recover.work.wal")
	defer os.Remove(pristine)
	defer os.Remove(work)

	var setups, rawSetups []float64
	var crashed *taskSession
	hp.Sample()
	for i := 0; i < cfg.reps(recoverSetups); i++ {
		if crashed != nil {
			if err := crashed.release(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i-1, err)
			}
		}
		root, endRoot := tr.Start("task_recover.setup", 0)
		t0 := time.Now()
		var err error
		crashed, err = writeRecoverWAL(ctx, cfg, pristine, n, tr, root, ph)
		endRoot()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		raw := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/hp.Lap())
	}
	ph.setupS, ph.rawSetupS = median(setups), median(rawSetups)
	pristineSize := fileSize(pristine)

	var recoverUS, rawRecoverUS, replayUS, reconcileS []float64
	var records float64
	sampler := startGoroutineSampler()
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < seconds; round++ {
		if err := copyFile(work, pristine); err != nil {
			return nil, err
		}
		root, endRoot := tr.Start("task_recover.round", 0)
		var replay time.Duration
		if tr != nil {
			// Replay alone first, so the traced run can split Recover into
			// reading the WAL and reconciling the session with it.
			t := time.Now()
			var stats *journal.ReplayStats
			var err error
			tr.Do("journal.ReplayFile", root, func() { _, stats, err = journal.ReplayFile(work) })
			if err != nil {
				return nil, fmt.Errorf("round %d: replay: %w", round, err)
			}
			replay = time.Since(t)
			replayUS = append(replayUS, float64(replay)/1e3/float64(stats.Records))
			hp.Sample()
		}
		before := readCounters()
		t := time.Now()
		var sess *core.Session
		var rep *core.RecoveryReport
		var err error
		tr.Do("core.Recover", root, func() {
			sess, rep, err = core.Recover(work, core.RecoverConfig{FlushEvery: time.Hour})
		})
		wall := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("round %d: recover: %w", round, err)
		}
		ph.counters = ph.counters.add(readCounters().sub(before))
		tr.Do("core.Session.Abandon", root, sess.Abandon)
		endRoot()
		slowdown := hp.Lap()

		ph.wall += wall
		ph.attempted += int64(n)
		ph.completed += int64(len(rep.TasksSettled))
		ph.addRound(float64(n)/wall.Seconds(), slowdown)
		rawRecoverUS = append(rawRecoverUS, float64(wall)/1e3)
		recoverUS = append(recoverUS, float64(wall)/1e3/slowdown)
		if tr != nil {
			reconcileS = append(reconcileS, (wall - replay).Seconds())
		}

		if len(rep.TasksSettled) != n || len(rep.TasksRerouted)+len(rep.TasksReattached) != 0 {
			ph.violate("round %d: settled %d rerouted %d reattached %d of %d tasks",
				round, len(rep.TasksSettled), len(rep.TasksRerouted), len(rep.TasksReattached), n)
		}
		if len(rep.PilotsAlive) != 2 {
			ph.violate("round %d: %d pilots alive, want 2", round, len(rep.PilotsAlive))
		}
		// ValidBytes is taken before the new incarnation appends to the
		// WAL, so it is compared with the pristine copy's size.
		if st := rep.Stats; st.TornTail || st.Invalid != 0 || st.Skipped != 0 || st.ValidBytes != pristineSize {
			ph.violate("round %d: replay torn=%v invalid=%d skipped=%d, accepted %d of %d bytes",
				round, st.TornTail, st.Invalid, st.Skipped, st.ValidBytes, pristineSize)
		}
		if int64(rep.Stats.Records) != journalRecords(n) {
			ph.violate("round %d: replayed %d records, golden.json pins %d", round, rep.Stats.Records, journalRecords(n))
		}
		if round == 0 {
			records = float64(rep.Stats.Records)
			ph.extra["journal.skipped_bytes"] = float64(pristineSize - rep.Stats.ValidBytes)
		}
	}
	ph.goroutinesPeak = sampler.Stop()
	if err := crashed.release(); err != nil {
		ph.violate("after the last recovery: %v", err)
	}
	ph.failed = ph.attempted - ph.completed
	// One whole recovery is the latency a user waits for.
	ph.latP50, ph.latP90 = quantile(recoverUS, 0.5), quantile(recoverUS, 0.9)
	ph.rawLatP50, ph.rawLatP90 = quantile(rawRecoverUS, 0.5), quantile(rawRecoverUS, 0.9)

	ph.extra["journal.records"] = records
	ph.extra["journal.records_per_task"] = records / float64(n)
	ph.extra["journal.bytes_per_task"] = float64(pristineSize) / float64(n)
	ph.extra["journal.replay_us_per_record"] = median(replayUS)
	ph.extra["core.recover_reconcile_s"] = median(reconcileS)
	return ph, nil
}
