package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"datacutter/internal/dataset"
)

// mainArgsEnv, when set, makes the test binary run main with the
// JSON-encoded arguments it holds instead of the tests: the exit-code test
// runs the command as a child process.
const mainArgsEnv = "DATAGEN_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(mainArgsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{"datagen"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// datagen runs the command's flags and run in-process on a tiny dataset in
// dir, plus extra flags.
func datagen(t *testing.T, dir string, extra ...string) {
	t.Helper()
	args := append([]string{"-dir", dir, "-grid", "9x9x7", "-chunks", "2x2x2", "-timesteps", "2", "-files", "3"}, extra...)
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatalf("datagen %q: %v", args, err)
	}
}

// sidecar decodes dir's summary.idx.
func sidecar(t *testing.T, dir string) *dataset.SummaryIndex {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, dataset.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := dataset.DecodeSummaryIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// A created dataset reopens with the shape asked for, and its sidecar
// covers every chunk at every timestep.
func TestCreateReopens(t *testing.T) {
	dir := t.TempDir()
	datagen(t, dir)
	st, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if m := st.DS.Meta; m.GX != 9 || m.GY != 9 || m.GZ != 7 || m.Timesteps != 2 || m.Files != 3 || st.DS.Chunks() != 8 {
		t.Fatalf("reopened %+v with %d chunks", m, st.DS.Chunks())
	}
	if _, err := st.ReadChunk(st.DS.Chunks()-1, 1); err != nil {
		t.Fatal(err)
	}
	if ix := sidecar(t, dir); ix.Chunks != 8 || ix.Timesteps != 2 {
		t.Fatalf("sidecar covers %d chunks x %d timesteps", ix.Chunks, ix.Timesteps)
	}
}

// -no-index leaves no sidecar, and -reindex then writes one that decodes
// to the entries creation writes.
func TestNoIndexThenReindex(t *testing.T) {
	indexed, bare := t.TempDir(), t.TempDir()
	datagen(t, indexed)
	datagen(t, bare, "-no-index")
	if _, err := os.Stat(filepath.Join(bare, dataset.SummaryFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("-no-index left a sidecar: %v", err)
	}
	o, err := parseFlags([]string{"-dir", bare, "-reindex"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, want := sidecar(t, bare), sidecar(t, indexed); !reflect.DeepEqual(got, want) {
		t.Fatalf("-reindex wrote %+v, creation wrote %+v", got, want)
	}
}

// Flags no dataset can be made from are rejected with exit code 2.
func TestBadFlagsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},                                // no -dir
		{"-grid", "9x9x7"},                // no -dir
		{"-dir", dir, "-grid", "9x9"},     // two axes
		{"-dir", dir, "-grid", "9x9x7x1"}, // four axes
		{"-dir", dir, "-grid", "9x0x7"},   // an empty axis
		{"-dir", dir, "-chunks", "axbxc"},
		{"-dir", dir, "-chunks", "2x2x2junk"},
		{"-dir", dir, "-chunks", "2x-2x2"},
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
			t.Fatalf("datagen %q did not exit", args)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("datagen %q: %v, want exit code 2", args, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a rejected run wrote %d entries into -dir (%v)", len(entries), err)
	}
}
