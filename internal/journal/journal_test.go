package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := json.RawMessage(`{"class":"suburban","seed":1}`)
	records := []Record{
		{Type: TypeSubmitted, Campaign: "c1", Job: 0, Spec: spec},
		{Type: TypeAttempt, Campaign: "c1", Job: 0, Attempt: 1},
		{Type: TypeResult, Campaign: "c1", Job: 0, State: "done"},
		{Type: TypeSubmitted, Campaign: "c1", Job: 1, Spec: spec},
	}
	for _, rec := range records {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got []Record
	if err := Replay(path, func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i, rec := range got {
		if rec.Seq != int64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Type != records[i].Type || rec.Campaign != records[i].Campaign ||
			rec.Job != records[i].Job || rec.Attempt != records[i].Attempt ||
			rec.State != records[i].State {
			t.Errorf("record %d mismatch: %+v want %+v", i, rec, records[i])
		}
		if rec.Time.IsZero() {
			t.Errorf("record %d: zero time", i)
		}
	}
	if string(got[0].Spec) != string(spec) {
		t.Errorf("spec: %s, want %s", got[0].Spec, spec)
	}
}

func TestReplayMissingFile(t *testing.T) {
	calls := 0
	err := Replay(filepath.Join(t.TempDir(), "nope.journal"), func(Record) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay of missing file: %v", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for missing file", calls)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Type: TypeSubmitted, Campaign: "c1", Job: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a truncated JSON line at the end.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteString(`{"seq":4,"type":"resul`); err != nil {
		t.Fatalf("write: %v", err)
	}
	f.Close()

	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatalf("Replay with torn tail: %v", err)
	}
	if count != 3 {
		t.Fatalf("replayed %d records, want 3", count)
	}

	// Open truncates the unacknowledged torn tail, so new appends start
	// on a clean line boundary and the file stays fully parseable.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open over torn tail: %v", err)
	}
	if err := j2.Append(Record{Type: TypeSubmitted, Campaign: "c2", Job: 0}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var types []string
	if err := Replay(path, func(rec Record) error { types = append(types, rec.Type); return nil }); err != nil {
		t.Fatalf("Replay after reopen over torn tail: %v", err)
	}
	if len(types) != 4 {
		t.Fatalf("replayed %d records after reopen, want 4", len(types))
	}
}

func TestReplayRejectsMidFileCorruption(t *testing.T) {
	path := tempJournal(t)
	good, _ := json.Marshal(Record{Seq: 1, Type: TypeSubmitted})
	content := "not json at all\n" + string(good) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	err := Replay(path, func(Record) error { return nil })
	if err == nil {
		t.Fatal("Replay accepted mid-file corruption")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %q does not locate the corrupt line", err)
	}
}

func TestSeqContinuesAcrossReopen(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(Record{Type: TypeSubmitted, Job: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := j2.Records(); got != 5 {
		t.Fatalf("Records after reopen: %d, want 5", got)
	}
	if err := j2.Append(Record{Type: TypeResult, Job: 0, State: "done"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j2.Close()

	var last Record
	if err := Replay(path, func(rec Record) error { last = rec; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if last.Seq != 6 {
		t.Fatalf("last seq %d, want 6 (numbering must continue across reopen)", last.Seq)
	}
}

func TestCompactKeepsOnlyLiveRecords(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 100; i++ {
		j.Append(Record{Type: TypeSubmitted, Campaign: "c1", Job: i})
		j.Append(Record{Type: TypeResult, Campaign: "c1", Job: i, State: "done"})
	}
	live := []Record{
		{Type: TypeSubmitted, Campaign: "c2", Job: 0, Spec: json.RawMessage(`{}`)},
		{Type: TypeSubmitted, Campaign: "c2", Job: 1, Spec: json.RawMessage(`{}`)},
	}
	if err := j.Compact(func() []Record { return live }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := j.Records(); got != 2 {
		t.Fatalf("Records after compact: %d, want 2", got)
	}
	// Appends after compaction land in the new file.
	if err := j.Append(Record{Type: TypeResult, Campaign: "c2", Job: 0, State: "done"}); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got []Record
	if err := Replay(path, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if got[0].Campaign != "c2" || got[0].Job != 0 || got[1].Job != 1 {
		t.Errorf("unexpected live records: %+v", got[:2])
	}
	// Seq must not restart: compaction continues the counter.
	if got[0].Seq <= 200 {
		t.Errorf("compacted seq %d did not continue past pre-compaction counter", got[0].Seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Errorf("seq not increasing: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	// No stray tmp file.
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("compact tmp file left behind")
	}
}

func TestBatchedSyncByCount(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{SyncEvery: 4, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	for i := 0; i < 4; i++ {
		if err := j.Append(Record{Type: TypeSubmitted, Job: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// SyncEvery reached: records must be on disk without Close/Sync.
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != 4 {
		t.Fatalf("after SyncEvery appends, %d records on disk, want 4", count)
	}
}

func TestBatchedSyncByTimer(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{SyncEvery: 1000, SyncInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if err := j.Append(Record{Type: TypeSubmitted, Job: 0}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		count := 0
		if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if count == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timer flush never landed the record on disk")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExplicitSync(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{SyncEvery: 1000, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	j.Append(Record{Type: TypeSubmitted, Job: 0})
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != 1 {
		t.Fatalf("after Sync, %d records on disk, want 1", count)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{SyncEvery: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(Record{Type: TypeAttempt, Campaign: fmt.Sprintf("c%d", g), Job: i}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seen := map[int64]bool{}
	count := 0
	if err := Replay(path, func(rec Record) error {
		if seen[rec.Seq] {
			t.Errorf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
		count++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != goroutines*per {
		t.Fatalf("replayed %d records, want %d", count, goroutines*per)
	}
}

func TestClosedJournalRejectsAppends(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j.Close()
	if err := j.Append(Record{Type: TypeSubmitted}); err == nil {
		t.Fatal("Append on closed journal succeeded")
	}
	if err := j.Sync(); err == nil {
		t.Fatal("Sync on closed journal succeeded")
	}
	if err := j.Compact(func() []Record { return nil }); err == nil {
		t.Fatal("Compact on closed journal succeeded")
	}
	// Double close is fine.
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
