package jobd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// The job journal is a write-ahead JSONL log: one record per line, appended
// and fsynced before the state change it describes takes effect. Four
// record kinds cover a job's lifecycle:
//
//	{"kind":"submit","id":1,"time":...,"spec":{...}}
//	{"kind":"start","id":1,"time":...}
//	{"kind":"retry","id":1,"time":...,"attempt":2,"not_before_ms":...}
//	{"kind":"done","id":1,"time":...,"ok":true}
//
// Replay on startup re-queues every job whose submit has no matching done:
// a job that was merely queued is resubmitted as-is, a job that was in
// flight when the process died is re-run from scratch — per-UOW filter
// state is rebuilt by Init under the paper's transparent-copy semantics, so
// re-running a whole job is the coarse-grained version of the UOW-retry
// recovery the coordinator already performs — and a job in retry backoff
// resumes its journaled schedule: the attempt count and the absolute
// not-before time survive the restart, so the backoff neither resets nor
// double-fires.
//
// The log is compacted — rewritten as one snapshot per live job — on
// startup recovery and whenever it outgrows Config.JournalCompactBytes;
// without that it grows without bound across restarts.
type journal struct {
	f    *os.File
	w    *bufio.Writer
	path string
	// size is the current log length in bytes, maintained across appends;
	// dirty means replay found terminal records worth compacting away.
	size  int64
	dirty bool
}

type journalRec struct {
	Kind string    `json:"kind"`
	ID   uint64    `json:"id"`
	Time time.Time `json:"time"`
	Spec *JobSpec  `json:"spec,omitempty"`
	OK   bool      `json:"ok,omitempty"`
	Err  string    `json:"err,omitempty"`
	// Retry records: the attempt count after the failure and the absolute
	// earliest re-dispatch time (Unix milliseconds, so zero is omittable).
	Attempt     int   `json:"attempt,omitempty"`
	NotBeforeMS int64 `json:"not_before_ms,omitempty"`
}

// replayedJob is one journaled job the previous process never finished.
type replayedJob struct {
	ID        uint64
	Spec      JobSpec
	Submitted time.Time
	Started   bool // it was in flight, not just queued
	// Attempts and NotBefore resume a retry-backoff schedule (zero when the
	// job never failed).
	Attempts  int
	NotBefore time.Time
}

// openJournal opens (creating if absent) the journal at path, replays it,
// and returns the jobs to re-queue in id order. Corrupt lines are skipped,
// not fatal: a line is a record only when it is one's exact encoding (see
// decodeRecord). An unterminated last line — a crash mid-append — was never
// acknowledged, since append syncs a record together with its newline: it
// is not replayed, even when it parses, and is cut off so that the next
// append starts on a line of its own.
func openJournal(path string) (*journal, []replayedJob, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobd: opening journal: %w", err)
	}
	replay, whole, dirty, err := replayJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobd: reading journal: %w", err)
	}
	if err := f.Truncate(whole); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobd: cutting torn journal tail: %w", err)
	}
	return &journal{f: f, w: bufio.NewWriter(f), path: path, size: whole, dirty: dirty}, replay, nil
}

// replayJournal scans journal bytes and returns the jobs to re-queue in id
// order, the length of the newline-terminated prefix (whole) and whether
// terminal records make the log worth compacting (dirty).
func replayJournal(src io.Reader) (replay []replayedJob, whole int64, dirty bool, err error) {
	type entry struct {
		spec      *JobSpec
		submitted time.Time
		started   bool
		done      bool
		attempts  int
		notBefore time.Time
	}
	jobs := map[uint64]*entry{}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sc.Split(func(data []byte, _ bool) (int, []byte, error) {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return 0, nil, nil // need more data, or an unterminated tail at EOF
		}
		whole += int64(i) + 1
		return i + 1, data[:i], nil
	})
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		r, ok := decodeRecord(line)
		if !ok {
			continue
		}
		switch r.Kind {
		case "submit":
			if r.Spec != nil {
				jobs[r.ID] = &entry{spec: r.Spec, submitted: r.Time}
			}
		case "start":
			if e := jobs[r.ID]; e != nil {
				e.started = true
			}
		case "retry":
			if e := jobs[r.ID]; e != nil {
				if e.started {
					dirty = true // supersedes the start record it follows
				}
				e.started = false // the failed run is over; it is queued again
				e.attempts = r.Attempt
				e.notBefore = time.UnixMilli(r.NotBeforeMS)
			}
		case "done":
			if e := jobs[r.ID]; e != nil {
				e.done = true
			}
			dirty = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, false, err
	}
	for id, e := range jobs {
		if e.done {
			continue
		}
		replay = append(replay, replayedJob{
			ID: id, Spec: *e.spec, Submitted: e.submitted, Started: e.started,
			Attempts: e.attempts, NotBefore: e.notBefore,
		})
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].ID < replay[j].ID })
	return replay, whole, dirty, nil
}

// decodeRecord parses one journal line. It accepts only a line that
// re-encodes to itself byte for byte — what append wrote: a line that
// merely parses (unknown fields, keys in another case or order, spacing,
// escapes) was written by nothing that journals, so replaying it could
// re-run a job other than the one acknowledged.
func decodeRecord(line []byte) (journalRec, bool) {
	var r journalRec
	if json.Unmarshal(line, &r) != nil {
		return r, false
	}
	b, err := json.Marshal(r)
	return r, err == nil && bytes.Equal(b, line)
}

// append writes one record and syncs it to disk; the caller holds the
// server mutex, which is the journal's write ordering.
func (j *journal) append(r journalRec) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.size += int64(len(b)) + 1
	return j.f.Sync()
}

func (j *journal) submit(id uint64, t time.Time, spec *JobSpec) error {
	return j.append(journalRec{Kind: "submit", ID: id, Time: t, Spec: spec})
}

func (j *journal) start(id uint64, t time.Time) error {
	return j.append(journalRec{Kind: "start", ID: id, Time: t})
}

func (j *journal) retry(id uint64, t time.Time, attempt int, notBefore time.Time, cause error) error {
	r := journalRec{Kind: "retry", ID: id, Time: t, Attempt: attempt, NotBeforeMS: notBefore.UnixMilli()}
	if cause != nil {
		r.Err = cause.Error()
	}
	return j.append(r)
}

func (j *journal) done(id uint64, t time.Time, runErr error) error {
	r := journalRec{Kind: "done", ID: id, Time: t, OK: runErr == nil}
	if runErr != nil {
		r.Err = runErr.Error()
	}
	return j.append(r)
}

// compact atomically replaces the log with the given snapshot records: a
// temp file in the same directory, fsynced, then renamed over the old log.
// On any error the existing journal stays in service untouched.
func (j *journal) compact(recs []journalRec) error {
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobd: compacting journal: %w", err)
	}
	w := bufio.NewWriter(f)
	size := int64(0)
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		size += int64(len(b)) + 1
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobd: swapping compacted journal: %w", err)
	}
	// Re-point the append side at the new log.
	j.w.Flush()
	j.f.Close()
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobd: reopening compacted journal: %w", err)
	}
	j.f, j.w, j.size, j.dirty = nf, bufio.NewWriter(nf), size, false
	return nil
}

func (j *journal) close() {
	j.w.Flush()
	j.f.Close()
}
