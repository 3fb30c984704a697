package dataset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"datacutter/internal/leakcheck"
)

// Create's output is pinned byte for byte: every data file, meta.json and
// summary.idx of each meta below hashes to the digest taken from the serial
// writer that preceded the parallel one (the bench case's: from the
// per-sample field fill that preceded the separable one). A digest is the sha256 of the
// directory's "name sha256\n" listing, so it pins every file and the set of
// files. Each case also checks that the -reindex path rebuilds the sidecar
// Create wrote inline.
func TestCreateBytesPinned(t *testing.T) {
	base := Meta{GX: 33, GY: 33, GZ: 33, BX: 4, BY: 4, BZ: 3, Timesteps: 2, Files: 4, Seed: 7, Plumes: 4}
	with := func(edit func(*Meta)) Meta { m := base; edit(&m); return m }
	for _, tc := range []struct {
		name     string
		meta     Meta
		maxProcs int // 0 = leave GOMAXPROCS as it is
		digest   string
	}{
		{"4-files", base, 0, "fe311779c149ab6adf979ff8f3e056d3c9fbed5fe5de6b1b8c91f279fc6e7232"},
		{"skewed", with(func(m *Meta) { m.Skewed = true }), 0, "99e70264976cf80ada8452ee30abc4d75218e3898d58c46f01dbc0738d031a3d"},
		{"1-file", with(func(m *Meta) { m.Files = 1 }), 0, "e1b87bd8c5601266e23953d5ff3a4894fb2aceb0e32693a320b7bbc5fe10acf9"},
		{"files-over-procs", with(func(m *Meta) { m.Files = 7 }), 3, "951beca79adb4681eaa1c33fedd411deab7fc9bf6f3f64973847b7619b5237ca"},
		{"files-over-chunks", with(func(m *Meta) { m.Files = 50 }), 0, "6d3ed6f96affaa211c6e9afaa5767eaedac86c977cd02897a40cebfd2507f300"},
		// The bench's input (bench/input.go), the dataset every workload reads.
		{"bench", Meta{GX: 129, GY: 129, GZ: 97, BX: 8, BY: 8, BZ: 6, Timesteps: 4, Files: 8, Seed: 2002, Plumes: 5}, 0, "c5211db329a22798229b58bd04ca5912030ecabe2cfb470ec7fd4d6469c7f9d1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.maxProcs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.maxProcs))
			}
			dir := t.TempDir()
			st, err := Create(dir, tc.meta)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got, listing := dirDigest(t, dir); got != tc.digest {
				t.Errorf("digest %s, want %s; files:\n%s", got, tc.digest, listing)
			}
			rebuilt, err := BuildSummaryIndex(st)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, SummaryFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(EncodeSummaryIndex(rebuilt), raw) {
				t.Error("BuildSummaryIndex differs from the sidecar Create wrote")
			}
		})
	}
}

// dirDigest hashes every file of dir; it returns the digest and the listing
// it was taken over.
func dirDigest(t *testing.T, dir string) (string, string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var listing strings.Builder
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&listing, "%s %x\n", n, sha256.Sum256(raw))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(listing.String()))), listing.String()
}

// A data file Create cannot make — its path is already a directory — fails
// Create with an error naming that file, whether it is the first file a
// worker takes or a later one, and leaves no worker goroutine, no open file
// and nothing Open accepts behind, even over an older dataset's meta.json.
func TestCreateFileError(t *testing.T) {
	m := Meta{GX: 33, GY: 33, GZ: 33, BX: 4, BY: 4, BZ: 3, Timesteps: 2, Files: 6, Seed: 7, Plumes: 4}
	for _, bad := range []int{0, m.Files - 1} {
		t.Run(fmt.Sprintf("file-%d", bad), func(t *testing.T) {
			leakcheck.Check(t)
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, fileName(bad)), 0o755); err != nil {
				t.Fatal(err)
			}
			if bad == 0 { // an older dataset was here
				if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(`{"GX":9,"GY":9,"GZ":9,"BX":1,"BY":1,"BZ":1,"Timesteps":1,"Files":1}`), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// The first file a process opens starts the runtime's poller,
			// whose descriptors stay open: open one before counting.
			if err := os.WriteFile(filepath.Join(dir, "warm-up"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			fds := openFiles()
			st, err := Create(dir, m)
			if err == nil {
				st.Close()
				t.Fatal("Create succeeded over an uncreatable data file")
			}
			if !strings.Contains(err.Error(), fileName(bad)) {
				t.Errorf("error %q does not name %s", err, fileName(bad))
			}
			if now := openFiles(); now != fds {
				t.Errorf("%d open files after the failed Create, %d before", now, fds)
			}
			if st, err := Open(dir); err == nil {
				st.Close()
				t.Error("Open accepted the directory a failed Create left")
			}
		})
	}
}

// openFiles counts the process's open file descriptors, or returns -1 where
// /proc/self/fd is unreadable.
func openFiles() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
