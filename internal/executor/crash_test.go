package executor_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"magus/internal/chaos"
	"magus/internal/executor"
	"magus/internal/journal"
	"magus/internal/runbook"
)

// TestExecutorCrashResumeEveryPoint is the crash-recovery sweep: a
// simulated SIGKILL at every chaos crash point of every runbook step,
// each in its own subtest with a fresh network and journal. After the
// kill a new executor over the same journal and the same network must
// resume and complete the run with every step committed exactly once —
// the in-doubt window (crash between push and commit) resolved by
// asking the network, never by pushing again.
func TestExecutorCrashResumeEveryPoint(t *testing.T) {
	_, rb := fixture(t)
	points := []string{"crash-before-push", "crash-before-commit", "crash-after-commit"}
	for _, point := range points {
		for _, step := range rb.Steps {
			t.Run(fmt.Sprintf("%s@%d", point, step.Index), func(t *testing.T) {
				t.Parallel()
				net := freshNet(t)
				plan, err := chaos.Parse(fmt.Sprintf("%s@%d", point, step.Index))
				if err != nil {
					t.Fatal(err)
				}
				cnet := plan.Instrument(net)

				jr, err := journal.Open(filepath.Join(t.TempDir(), "exec.wal"), journal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer jr.Close()
				opts := fastOpts()
				opts.RunID = "crash"
				opts.Journal = jr
				opts.CrashHook = cnet.Hook()

				// First incarnation dies at the scripted point.
				ex, err := executor.New(cnet, rb, opts)
				if err != nil {
					t.Fatal(err)
				}
				st, err := ex.Run(context.Background())
				if !errors.Is(err, executor.ErrKilled) {
					t.Fatalf("first incarnation: err = %v, want ErrKilled", err)
				}
				if st.State != executor.RunKilled {
					t.Fatalf("first incarnation state = %q, want killed", st.State)
				}

				// Second incarnation resumes from the journal. The chaos
				// site fired once and is spent, so this one runs through.
				ex2, err := executor.New(cnet, rb, opts)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := ex2.Run(context.Background())
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if st2.State != executor.RunDone || !st2.Resumed {
					t.Fatalf("resume state = %q resumed=%v, want done/true", st2.State, st2.Resumed)
				}
				for _, s := range rb.Steps {
					if n := net.Pushes(s); n != 1 {
						t.Errorf("step %d pushed %d times across crash+resume, want exactly 1", s.Index, n)
					}
				}
				assertCommitOnce(t, jr, "crash", rb)
			})
		}
	}
}

// TestExecutorCrashMidRollback kills the run after the halt record is
// written (crash during the unwind, via a crash point on a step the
// rollback re-walks is not scriptable — so this scripts the breach plus
// a kill at the forward commit of the breaching step, then checks the
// resumed incarnation finishes the rollback it finds half-journaled).
func TestExecutorCrashThenHaltResume(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	// Step 2 commits, the run is killed; the resumed incarnation
	// re-verifies step 2 against a sustained breach and must halt and
	// unwind both committed steps.
	plan, err := chaos.Parse("crash-after-commit@2,kpi-breach@2")
	if err != nil {
		t.Fatal(err)
	}
	cnet := plan.Instrument(net)
	jr, err := journal.Open(filepath.Join(t.TempDir(), "exec.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	opts := fastOpts()
	opts.RunID = "haltresume"
	opts.Journal = jr
	opts.CrashHook = cnet.Hook()

	ex, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background()); !errors.Is(err, executor.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}

	ex2, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !st.Halted || !st.RolledBack || st.State != executor.RunRolledBack {
		t.Fatalf("halted=%v rolledBack=%v state=%q, want halted+rolled-back", st.Halted, st.RolledBack, st.State)
	}
	for _, s := range rb.Steps[:2] {
		if n := net.Pushes(s); n != 1 {
			t.Errorf("step %d pushed %d times, want exactly 1", s.Index, n)
		}
	}

	// A third incarnation over the terminal journal reports the result
	// without touching the network again.
	before1 := net.Pushes(rb.Steps[0])
	ex3, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st3, err := ex3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != executor.RunRolledBack || !st3.RolledBack {
		t.Fatalf("terminal replay state = %q, want rolled-back", st3.State)
	}
	if after1 := net.Pushes(rb.Steps[0]); after1 != before1 {
		t.Errorf("terminal replay pushed again: %d -> %d", before1, after1)
	}
}

// lossyRun runs incarnations of one journaled run until one is not
// killed. Each incarnation opens the journal at path anew and the one
// before it is dropped without a flush, so a kill loses every record
// appended since the last sync — what a power cut leaves behind. The
// journals' background flush is set an hour out to keep it from saving
// a tail. It returns the surviving status, its journal, and how many
// records each kill lost.
func lossyRun(t *testing.T, net executor.Network, rb *runbook.Runbook, opts executor.Options, path string) (*executor.Status, *journal.Journal, []int64) {
	t.Helper()
	var lost []int64
	for incarnation := 0; ; incarnation++ {
		jr, err := journal.Open(path, journal.Options{SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		// Closed only once the test is done with the file: a close
		// flushes the dropped tail.
		t.Cleanup(func() { jr.Close() })
		opts.Journal = jr
		ex, err := executor.New(net, rb, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ex.Run(context.Background())
		if !errors.Is(err, executor.ErrKilled) {
			if err != nil {
				t.Fatalf("incarnation %d: %v", incarnation, err)
			}
			return st, jr, lost
		}
		if incarnation > 4 {
			t.Fatalf("run killed %d times", incarnation+1)
		}
		onDisk := int64(0)
		if err := journal.Replay(path, func(journal.Record) error { onDisk++; return nil }); err != nil {
			t.Fatal(err)
		}
		lost = append(lost, jr.Records()-onDisk)
	}
}

// TestExecutorCrashLosesUnsyncedTail is the crash sweep under a lost
// tail: a kill at every crash point of every step, after which the
// resumed incarnation reopens the journal file and sees only the
// records that were synced. Intents are synced before their push, so a
// kill before the push or before the commit loses nothing; a kill after
// the commit loses the commit, and the resume must resolve the step in
// doubt by asking the network. Every step is still pushed exactly once
// and committed once on disk.
func TestExecutorCrashLosesUnsyncedTail(t *testing.T) {
	_, rb := fixture(t)
	points := map[string]int64{"crash-before-push": 0, "crash-before-commit": 0, "crash-after-commit": 1}
	for point, wantLost := range points {
		for _, step := range rb.Steps {
			t.Run(fmt.Sprintf("%s@%d", point, step.Index), func(t *testing.T) {
				t.Parallel()
				net := freshNet(t)
				plan, err := chaos.Parse(fmt.Sprintf("%s@%d", point, step.Index))
				if err != nil {
					t.Fatal(err)
				}
				cnet := plan.Instrument(net)
				opts := fastOpts()
				opts.RunID = "lossy"
				opts.CrashHook = cnet.Hook()
				st, jr, lost := lossyRun(t, cnet, rb, opts, filepath.Join(t.TempDir(), "exec.wal"))
				if len(lost) != 1 || lost[0] != wantLost {
					t.Errorf("records lost per kill = %v, want [%d]", lost, wantLost)
				}
				if st.State != executor.RunDone || !st.Resumed {
					t.Fatalf("resume state = %q resumed=%v, want done/true", st.State, st.Resumed)
				}
				for _, s := range rb.Steps {
					if n := net.Pushes(s); n != 1 {
						t.Errorf("step %d pushed %d times across crash+resume, want exactly 1", s.Index, n)
					}
				}
				assertCommitOnce(t, jr, "lossy", rb)
			})
		}
	}
}

// TestExecutorRollbackCrashLosesUnsyncedTail kills a halted run in its
// rollback, with the tail lost as above. A kill after the halt record
// loses it and the breaching step's commit: the resume finds that step
// in doubt, re-verifies it against the still-breaching KPI and halts
// again. A kill after a rollback commit loses that commit: the synced
// rollback intent leaves the rollback in doubt, resolved by asking the
// network. Every forward and rollback push lands exactly once and the
// run ends rolled back.
func TestExecutorRollbackCrashLosesUnsyncedTail(t *testing.T) {
	_, rb := fixture(t)
	cases := []struct {
		kills []string
		lost  []int64
	}{
		{[]string{"after-halt@2"}, []int64{2}},
		{[]string{"after-rollback-commit@2"}, []int64{1}},
		{[]string{"after-rollback-commit@1"}, []int64{1}},
		{[]string{"after-halt@2", "after-rollback-commit@1"}, []int64{2, 1}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprint(c.kills), func(t *testing.T) {
			t.Parallel()
			net := freshNet(t)
			plan, err := chaos.Parse("kpi-breach@2")
			if err != nil {
				t.Fatal(err)
			}
			cnet := plan.Instrument(net)
			kill := map[string]bool{}
			for _, k := range c.kills {
				kill[k] = true
			}
			opts := fastOpts()
			opts.RunID = "lossy-rollback"
			opts.CrashHook = func(p executor.CrashPoint, step int) error {
				site := fmt.Sprintf("%s@%d", p, step)
				if kill[site] {
					delete(kill, site)
					return executor.ErrKilled
				}
				return nil
			}
			st, _, lost := lossyRun(t, cnet, rb, opts, filepath.Join(t.TempDir(), "exec.wal"))
			if fmt.Sprint(lost) != fmt.Sprint(c.lost) {
				t.Errorf("records lost per kill = %v, want %v", lost, c.lost)
			}
			if len(kill) != 0 {
				t.Fatalf("kill sites never reached: %v", kill)
			}
			if !st.Halted || st.HaltStep != 2 || !st.RolledBack || st.State != executor.RunRolledBack {
				t.Fatalf("halted=%v step=%d rolledBack=%v state=%q, want halt at 2, rolled back",
					st.Halted, st.HaltStep, st.RolledBack, st.State)
			}
			for _, s := range rb.Steps[:2] {
				inv := runbook.Step{Index: s.Index, Kind: runbook.KindRollback}
				if n, m := net.Pushes(s), net.Pushes(inv); n != 1 || m != 1 {
					t.Errorf("step %d pushed %d times, rolled back %d times, want 1 and 1", s.Index, n, m)
				}
			}
			for _, s := range rb.Steps[2:] {
				if n := net.Pushes(s); n != 0 {
					t.Errorf("step %d pushed %d times after the halt, want 0", s.Index, n)
				}
			}
		})
	}
}

// TestExecutorSyncsBeforeActing counts a journaled run's fsyncs: one per
// intent, forward or rollback, and one for the outcome. A clean k-step
// run appends 3k+1 records and syncs k+1 times.
func TestExecutorSyncsBeforeActing(t *testing.T) {
	_, rb := fixture(t)
	k := int64(len(rb.Steps))
	cases := []struct {
		name, chaos    string
		records, syncs int64
	}{
		{"clean", "", 3*k + 1, k + 1},
		// Halt at step 2: intents, commits and verify of step 1, intent
		// and commit of step 2, the halt, two rollback intents and
		// commits, the outcome.
		{"halt", "kpi-breach@2", 11, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := chaos.Parse(c.chaos)
			if err != nil {
				t.Fatal(err)
			}
			cnet := plan.Instrument(freshNet(t))
			path := filepath.Join(t.TempDir(), "exec.wal")
			jr, err := journal.Open(path, journal.Options{SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer jr.Close()
			opts := fastOpts()
			opts.RunID = "count"
			opts.Journal = jr
			opts.Counters = &executor.Counters{}
			ex, err := executor.New(cnet, rb, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ex.Run(context.Background())
			if err != nil || !st.Done() {
				t.Fatalf("run: state %q, err %v", st.State, err)
			}
			got := opts.Counters.Snapshot()
			if got.JournalRecords != c.records || got.JournalSyncs != c.syncs {
				t.Errorf("records=%d syncs=%d, want %d and %d", got.JournalRecords, got.JournalSyncs, c.records, c.syncs)
			}
			// The outcome's sync leaves nothing behind in the buffer.
			onDisk := int64(0)
			if err := journal.Replay(path, func(journal.Record) error { onDisk++; return nil }); err != nil {
				t.Fatal(err)
			}
			if onDisk != c.records {
				t.Errorf("%d records on disk before close, want %d", onDisk, c.records)
			}
		})
	}
}
