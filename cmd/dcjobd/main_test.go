package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"syscall"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/jobd"
	"datacutter/internal/leakcheck"
)

// mainArgsEnv, when set, makes the test binary run main with the
// JSON-encoded arguments it holds instead of the tests: the exit-code test
// runs the command as a child process.
const mainArgsEnv = "DCJOBD_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(mainArgsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{"dcjobd"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Malformed flags and quota strings are rejected before the server starts,
// with exit code 2.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-max-concurrent", "many"},
		{"-drain-timeout", "soon"},
		{"-journal-compact", "4MiB"},
		{"-no-such-flag"},
		{"-quota", "1:2:3:4"},         // four fields
		{"-quota", "1:-2"},            // negative
		{"-quotas", "teamA"},          // no tenant=
		{"-quotas", "teamA=1,teamB="}, // empty quota
	} {
		if _, err := parseFlags(args); err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("parseFlags(%q) = %v, want a usage error", args, err)
		}
		raw, err := json.Marshal(args)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+string(raw))
		done := make(chan error, 1)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { done <- cmd.Wait() }()
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("dcjobd %q did not exit", args)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("dcjobd %q: %v, want exit code 2", args, err)
		}
	}
}

// Every flag lands in its configuration field.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-listen", ":9000", "-journal", "/tmp/j.jsonl", "-max-concurrent", "6",
		"-quota", "2:8", "-quotas", "teamA=1:4:0,teamB=2:16:1048576",
		"-probe-interval", "1s", "-drain-timeout", "5s", "-max-retries", "3",
		"-retry-backoff", "100ms", "-retry-backoff-max", "2s", "-quarantine-strikes", "4",
		"-probation", "10s", "-max-queue-age", "1m", "-max-queue-depth", "64",
		"-retry-after", "7s", "-journal-compact", "1024",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := options{listen: ":9000", drainTimeout: 5 * time.Second, cfg: jobd.Config{
		JournalPath: "/tmp/j.jsonl", MaxRunning: 6, ProbeInterval: time.Second,
		DefaultQuota: jobd.Quota{MaxRunning: 2, MaxQueued: 8},
		Quotas: map[string]jobd.Quota{
			"teamA": {MaxRunning: 1, MaxQueued: 4},
			"teamB": {MaxRunning: 2, MaxQueued: 16, MaxQueuedBytes: 1048576},
		},
		DefaultMaxRetries: 3, RetryBackoff: 100 * time.Millisecond, RetryBackoffMax: 2 * time.Second,
		QuarantineStrikes: 4, Probation: 10 * time.Second, MaxQueueAge: time.Minute,
		MaxQueueDepth: 64, ShedRetryAfter: 7 * time.Second, JournalCompactBytes: 1024,
	}}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("parsed %+v\nwant   %+v", o, want)
	}
	if o, err := parseFlags(nil); err != nil || o.listen != "127.0.0.1:8080" || o.drainTimeout != 30*time.Second {
		t.Fatalf("defaults: %+v, %v", o, err)
	}
}

// countSink counts the buffers it reads on stream s.
type countSink struct {
	core.BaseFilter
	n int
}

func (k *countSink) Process(ctx core.Ctx) error {
	for {
		if _, ok := ctx.Read("s"); !ok {
			return nil
		}
		k.n++
	}
}

// oneSource writes one buffer on stream s, after a pause that makes jobs
// submitted together overlap.
type oneSource struct{ core.BaseFilter }

func (oneSource) Process(ctx core.Ctx) error {
	time.Sleep(100 * time.Millisecond)
	return ctx.Write("s", core.Buffer{Payload: []byte{1}, Size: 1})
}

func init() {
	dist.RegisterFilter("dcjobdtest.source", func([]byte) (core.Filter, error) { return oneSource{}, nil })
	dist.RegisterFilter("dcjobdtest.sink", func([]byte) (core.Filter, error) { return &countSink{}, nil })
}

// An in-process server on 127.0.0.1:0 runs jobs on two registered workers
// and, on its stop signal, drains and closes: the leak check fails on any
// link its pool kept open — three overlapping jobs leave three per worker —
// or any goroutine of its HTTP server.
func TestRunServesJobsAndDrains(t *testing.T) {
	leakcheck.Check(t)
	workers := map[string]*dist.Worker{}
	for _, h := range []string{"a", "b"} {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		go w.Serve()
		workers[h] = w
	}
	opt, err := parseFlags([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	addr := make(chan string, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(opt, stop, &out, func(a string) { addr <- a }) }()
	base := "http://" + <-addr

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	post := func(path string, v any) []byte {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: %s: %s", path, resp.Status, reply)
		}
		return reply
	}
	for h, w := range workers {
		post("/workers", map[string]string{"host": h, "addr": w.Addr()})
	}
	spec := jobd.JobSpec{
		Graph: dist.GraphSpec{
			Filters: []dist.FilterSpec{{Name: "S", Kind: "dcjobdtest.source"}, {Name: "K", Kind: "dcjobdtest.sink"}},
			Streams: []core.StreamSpec{{Name: "s", From: "S", To: "K"}},
		},
		Placement: []dist.PlacementEntry{{Filter: "S", Host: "a", Copies: 1}, {Filter: "K", Host: "b", Copies: 1}},
	}
	var ids []uint64
	for range 3 {
		var sub struct{ ID uint64 }
		if err := json.Unmarshal(post("/jobs", spec), &sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := client.Get(fmt.Sprintf("%s/jobs/%d", base, id))
			if err != nil {
				t.Fatal(err)
			}
			var j jobd.Job
			err = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if j.State.Terminal() {
				if j.State != jobd.StateDone {
					t.Fatalf("job %d ended %s: %s", j.ID, j.State, j.Err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d still %s", j.ID, j.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if k := workers["b"].InstancesJob(id, "K"); len(k) != 1 || k[0].(*countSink).n != 1 {
			t.Fatalf("job %d's sink: %v", id, k)
		}
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after its stop signal")
	}
	if !bytes.Contains(out.Bytes(), []byte(`"jobd.jobs_completed": 3`)) {
		t.Fatalf("final metrics snapshot lacks 3 completed jobs:\n%s", out.Bytes())
	}
}
