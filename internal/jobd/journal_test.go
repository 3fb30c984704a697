package jobd

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"datacutter/internal/dist"
)

func testSpec(name string) *JobSpec {
	return &JobSpec{Name: name, Tenant: "t"}
}

// A journal holding finished jobs, a queued job, and a job mid-backoff is
// compacted to snapshot records; replaying the compacted log must yield
// exactly the live jobs with their retry schedule intact.
func TestJournalCompactReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jnl, replay, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replay))
	}
	base := time.Now().Round(time.Millisecond)
	notBefore := base.Add(10 * time.Second)

	// Job 1 ran to completion, job 2 failed terminally: both compact away.
	// Job 3 is queued untouched; job 4 failed once and waits out a backoff.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jnl.submit(1, base, testSpec("done")))
	must(jnl.start(1, base))
	must(jnl.done(1, base, nil))
	must(jnl.submit(2, base, testSpec("failed")))
	must(jnl.start(2, base))
	must(jnl.done(2, base, fmt.Errorf("boom")))
	must(jnl.submit(3, base, testSpec("queued")))
	must(jnl.submit(4, base, testSpec("backoff")))
	must(jnl.start(4, base))
	must(jnl.retry(4, base, 1, notBefore, fmt.Errorf("worker lost")))
	jnl.close()

	// Replay the uncompacted log: jobs 3 and 4 are live, 4 resumes retry 1.
	jnl, replay, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !jnl.dirty {
		t.Fatal("journal with terminal records not marked dirty")
	}
	preSize := jnl.size
	checkReplay := func(replay []replayedJob) {
		t.Helper()
		if len(replay) != 2 {
			t.Fatalf("replayed %d jobs, want 2: %+v", len(replay), replay)
		}
		if replay[0].ID != 3 || replay[0].Attempts != 0 {
			t.Fatalf("job 3 replayed as %+v", replay[0])
		}
		if replay[1].ID != 4 || replay[1].Attempts != 1 {
			t.Fatalf("job 4 replayed as %+v", replay[1])
		}
		if got := replay[1].NotBefore.UnixMilli(); got != notBefore.UnixMilli() {
			t.Fatalf("job 4 notBefore %d, want %d", got, notBefore.UnixMilli())
		}
	}
	checkReplay(replay)

	// Compact to the snapshot a server would write: submit (+retry) per
	// live job.
	recs := []journalRec{
		{Kind: "submit", ID: 3, Time: base, Spec: testSpec("queued")},
		{Kind: "submit", ID: 4, Time: base, Spec: testSpec("backoff")},
		{Kind: "retry", ID: 4, Time: base, Attempt: 1, NotBeforeMS: notBefore.UnixMilli()},
	}
	if err := jnl.compact(recs); err != nil {
		t.Fatal(err)
	}
	if jnl.dirty {
		t.Fatal("compacted journal still dirty")
	}
	if jnl.size >= preSize {
		t.Fatalf("compaction did not shrink the log: %d -> %d", preSize, jnl.size)
	}
	// The compacted journal must still accept appends.
	must(jnl.submit(5, base, testSpec("post-compact")))
	jnl.close()

	// Replay the compacted log: same live set, plus the post-compact append.
	jnl2, replay, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.close()
	if jnl2.dirty {
		t.Fatal("compacted journal replayed dirty")
	}
	if len(replay) != 3 {
		t.Fatalf("replayed %d jobs after compaction, want 3: %+v", len(replay), replay)
	}
	checkReplay(replay[:2])
	if replay[2].ID != 5 {
		t.Fatalf("post-compact submit replayed as %+v", replay[2])
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"done"`) {
		t.Fatalf("compacted journal still holds terminal records:\n%s", raw)
	}
}

// A torn trailing line (crash mid-append) is skipped, not fatal, and does
// not corrupt the records before it. Nor does it corrupt the records after
// it: a submission the restarted server acknowledges must survive the next
// restart, even when the torn line is a complete record missing only its
// newline.
func TestJournalTornTail(t *testing.T) {
	// No worker ever registers for host h, so the server keeps its jobs
	// queued and journals nothing but their submissions.
	queued := JobSpec{
		Name:      "queued",
		Graph:     dist.GraphSpec{Filters: []dist.FilterSpec{{Name: "f", Kind: "k"}}},
		Placement: []dist.PlacementEntry{{Filter: "f", Host: "h", Copies: 1}},
	}
	for _, torn := range []string{
		`{"kind":"sub`,
		`{"kind":"submit","id":2,"time":"2024-01-01T00:00:00Z","spec":{"name":"unsynced"}}`,
	} {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		jnl, _, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.submit(1, time.Now(), &queued); err != nil {
			t.Fatal(err)
		}
		jnl.close()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s, err := NewServer(Config{JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(1); !ok {
			t.Fatalf("torn tail %q: job 1 not replayed", torn)
		}
		id, err := s.Submit(queued)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()

		jnl, replay, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		jnl.close()
		if len(replay) != 2 || replay[0].ID != 1 || replay[1].ID != id {
			t.Fatalf("torn tail %q: replay after acknowledged submit %d: %+v", torn, id, replay)
		}
	}
}

// FuzzJournalReplay writes arbitrary bytes as the journal file and opens
// it. Replay must not panic, must leave the file as its newline-terminated
// prefix, must accept only records that re-encode to the bytes they were
// read from, and must be repeatable: a second open replays the same jobs,
// plus a record appended after the first.
func FuzzJournalReplay(f *testing.F) {
	at := addJournalSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jnl, first, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := data[:bytes.LastIndexByte(data, '\n')+1]; !bytes.Equal(raw, want) {
			t.Fatalf("journal left as %q, want its terminated prefix %q", raw, want)
		}
		// Only a line that re-encodes to itself is a record: the journal
		// of those lines alone must replay the same jobs.
		rpath := filepath.Join(t.TempDir(), "records.jsonl")
		if err := os.WriteFile(rpath, reencodable(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		rj, fromRecords, err := openJournal(rpath)
		if err != nil {
			t.Fatal(err)
		}
		rj.close()
		sameJobs(t, "the re-encodable records", fromRecords, first)
		id := uint64(0)
		for slices.ContainsFunc(first, func(j replayedJob) bool { return j.ID == id }) {
			id++
		}
		if err := jnl.submit(id, at, testSpec("appended")); err != nil {
			t.Fatal(err)
		}
		jnl.close()

		jnl, second, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		jnl.close()
		want := append(slices.Clone(first), replayedJob{ID: id, Spec: *testSpec("appended"), Submitted: at})
		slices.SortFunc(want, func(a, b replayedJob) int { return cmp.Compare(a.ID, b.ID) })
		sameJobs(t, "the second open", second, want)
	})
}

// FuzzJournalReplayBytes is FuzzJournalReplay's in-memory half: it replays
// arbitrary bytes through replayJournal without a file, so no input waits
// for the disk, where the on-disk fuzzer fsyncs every one. Replay must not panic,
// must report the newline-terminated prefix as the whole log, and must
// replay the same jobs from the re-encodable records alone.
func FuzzJournalReplayBytes(f *testing.F) {
	addJournalSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, whole, _, err := replayJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		prefix := data[:bytes.LastIndexByte(data, '\n')+1]
		if whole != int64(len(prefix)) {
			t.Fatalf("whole = %d, want the terminated prefix's %d bytes", whole, len(prefix))
		}
		fromRecords, _, _, err := replayJournal(bytes.NewReader(reencodable(prefix)))
		if err != nil {
			t.Fatal(err)
		}
		sameJobs(t, "the re-encodable records", fromRecords, got)
	})
}

// addJournalSeeds seeds a journal fuzzer and returns the seeds' timestamp.
func addJournalSeeds(f *testing.F) time.Time {
	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	f.Add([]byte(`{"kind":"sub`))
	f.Add([]byte(`{"kind":"submit","id":2,"time":"2024-01-01T00:00:00Z","spec":{"name":"unsynced"}}`))
	var seq []byte
	for _, r := range []journalRec{
		{Kind: "submit", ID: 1, Time: at, Spec: testSpec("done")},
		{Kind: "start", ID: 1, Time: at},
		{Kind: "retry", ID: 1, Time: at, Attempt: 1, NotBeforeMS: at.UnixMilli() + 500, Err: "worker lost"},
		{Kind: "start", ID: 1, Time: at},
		{Kind: "done", ID: 1, Time: at, OK: true},
		{Kind: "submit", ID: 2, Time: at, Spec: testSpec("backoff")},
		{Kind: "start", ID: 2, Time: at},
		{Kind: "retry", ID: 2, Time: at, Attempt: 1, NotBeforeMS: at.UnixMilli() + 500},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		seq = append(append(seq, b...), '\n')
	}
	f.Add(seq)
	// Parses, but is no record's encoding: key case, spacing, an unknown
	// field.
	f.Add([]byte(`{"KIND":"done","id":1,"time":"2024-01-01T00:00:00Z","ok":true}` + "\n" +
		`{"kind": "start","id":1,"time":"2024-01-01T00:00:00Z"}` + "\n" +
		`{"kind":"submit","id":3,"time":"2024-01-01T00:00:00Z","spec":{"name":"x","graph":{"Filters":null,"Streams":null},"placement":null,"options":{}},"extra":1}` + "\n"))
	return at
}

// reencodable keeps the lines of a newline-terminated journal that are a
// record's exact encoding, newline included.
func reencodable(journal []byte) []byte {
	var records []byte
	for _, line := range bytes.SplitAfter(journal, []byte{'\n'}) {
		var r journalRec
		body := bytes.TrimSuffix(line, []byte{'\n'})
		if json.Unmarshal(body, &r) == nil {
			if b, err := json.Marshal(r); err == nil && bytes.Equal(b, body) {
				records = append(records, line...)
			}
		}
	}
	return records
}

// sameJobs fails the test unless got are the jobs of want.
func sameJobs(t *testing.T, what string, got, want []replayedJob) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s replayed %d jobs, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Started != w.Started || g.Attempts != w.Attempts ||
			!g.Submitted.Equal(w.Submitted) || !g.NotBefore.Equal(w.NotBefore) || !reflect.DeepEqual(g.Spec, w.Spec) {
			t.Fatalf("%s replayed job %d as %+v, want %+v", what, w.ID, g, w)
		}
	}
}
