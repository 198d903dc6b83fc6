package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/journal"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// TestJournaledRetiredFixedPointRecovers: journals written before the
// fixed-point kernel was retired carry a FixedPoint field in their job
// specs (and clients sent fixed_point). Such a record must still replay,
// and its job must recover to the same result as the same job without
// the field.
func TestJournaledRetiredFixedPointRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(JobSpec{Class: topology.Suburban, Seed: 1, Scenario: upgrade.FourCorners, Method: core.Joint})
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(plain), "{", `{"FixedPoint":true,"fixed_point":true,`, 1)
	for i, spec := range []string{old, string(plain)} {
		if err := jr.Append(journal.Record{Type: journal.TypeSubmitted, Campaign: "c1", Job: i, Spec: json.RawMessage(spec)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("replayed %d jobs, want 2: %+v", len(pending), pending)
	}
	o, err := New(Config{Build: testBuild(NewEngineCache(2)), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	cs, err := o.Resubmit(pending)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cs[0].Wait(ctx); err != nil {
		t.Fatal(err)
	}
	jobs := cs[0].Snapshot().Jobs
	for _, j := range jobs {
		if j.State != "done" || j.Result == nil {
			t.Fatalf("job %d: state %s, error %q", j.ID, j.State, j.Error)
		}
	}
	if !reflect.DeepEqual(jobs[0].Result, jobs[1].Result) {
		t.Fatalf("job with the retired field recovered to %+v, without it %+v", jobs[0].Result, jobs[1].Result)
	}
}
