package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"testing"
	"time"
)

// mainArgsEnv, when set, makes the test binary run main with the
// JSON-encoded arguments it holds instead of the tests: the exit-code test
// runs the command as a child process.
const mainArgsEnv = "DCWORKER_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(mainArgsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{"dcworker"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A flag combination no worker can run with is rejected before the worker
// listens, with exit code 2.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-register", "http://127.0.0.1:1"},                // -register without -host
		{"-faults", "kill=data:0"},                         // counts start at 1
		{"-faults", "seed=7; drop=triangles"},              // drop needs STREAM:NTH
		{"-listen", "127.0.0.1:0", "-faults", "explode=1"}, // unknown directive
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
			t.Fatalf("dcworker %q did not exit", args)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("dcworker %q: %v, want exit code 2", args, err)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-listen", ":9200", "-register", "http://jobd:8080", "-host", "data1",
		"-faults", "seed=7; drop=triangles:100", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.listen != ":9200" || o.register != "http://jobd:8080" || o.host != "data1" || o.drainTimeout != 5*time.Second {
		t.Fatalf("parsed %+v", o)
	}
	if o.faults == nil || o.faults.String() != "seed=7; drop=triangles:100" {
		t.Fatalf("fault plan %v", o.faults)
	}
	if o, err := parseFlags(nil); err != nil || o.faults != nil || o.listen != "127.0.0.1:9101" {
		t.Fatalf("defaults: %+v, %v", o, err)
	}
}
