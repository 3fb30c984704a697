package jobd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datacutter/internal/conformance"
	"datacutter/internal/jobd"
)

func httpGet(t *testing.T, url string, want int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, want, body)
	}
	return body
}

func httpPost(t *testing.T, url string, v any, want int) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d: %s", url, resp.StatusCode, want, body)
	}
	return body
}

// The full HTTP surface: register workers, submit a job, watch it finish,
// read its events, and hit the layered obs endpoints.
func TestHTTPAPIEndToEnd(t *testing.T) {
	mesh, meshAddrs, _ := startMesh(t, 2)
	s := newServer(t, jobd.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness comes from the layered obs handler.
	if got := string(httpGet(t, ts.URL+"/healthz", http.StatusOK)); got != "ok\n" {
		t.Fatalf("/healthz = %q", got)
	}

	spec := conformance.Generate(41, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Register both workers over HTTP.
	for i, addr := range meshAddrs {
		httpPost(t, ts.URL+"/workers", map[string]string{
			"host": mesh[i], "addr": addr,
		}, http.StatusNoContent)
	}
	var workers []struct {
		Host    string `json:"host"`
		Healthy bool   `json:"healthy"`
	}
	if err := json.Unmarshal(httpGet(t, ts.URL+"/workers", http.StatusOK), &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 || !workers[0].Healthy || !workers[1].Healthy {
		t.Fatalf("workers = %+v", workers)
	}

	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(httpPost(t, ts.URL+"/jobs",
		confJobSpec(j, "web", "via-http"), http.StatusAccepted), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == 0 {
		t.Fatal("submission returned id 0")
	}

	jobURL := fmt.Sprintf("%s/jobs/%d", ts.URL, sub.ID)
	deadline := time.Now().Add(30 * time.Second)
	var got jobd.Job
	for {
		if err := json.Unmarshal(httpGet(t, jobURL, http.StatusOK), &got); err != nil {
			t.Fatal(err)
		}
		if got.State == jobd.StateDone || got.State == jobd.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.State != jobd.StateDone {
		t.Fatalf("job failed: %s", got.Err)
	}
	if got.Stats == nil {
		t.Fatal("done job carries no stats")
	}
	if v := j.Check(got.Stats); len(v) > 0 {
		t.Errorf("job run over HTTP violated oracles:\n%v", v)
	}

	var events []jobd.Event
	if err := json.Unmarshal(httpGet(t, jobURL+"/events", http.StatusOK), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 { // submitted, started, done
		t.Fatalf("events = %+v", events)
	}

	httpGet(t, jobURL+"/metrics", http.StatusOK)
	httpGet(t, ts.URL+"/status", http.StatusOK)
	httpGet(t, ts.URL+"/metrics", http.StatusOK)
	httpGet(t, ts.URL+"/jobs/99999", http.StatusNotFound)

	// Bad submissions map to 400.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
	httpPost(t, ts.URL+"/jobs", jobd.JobSpec{}, http.StatusBadRequest)
}

// Quota overflows surface as 429 over HTTP.
func TestHTTPQuotaStatus(t *testing.T) {
	s := newServer(t, jobd.Config{
		Quotas: map[string]jobd.Quota{"q": {MaxQueued: 1}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := conformance.Generate(43, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, []string{"w0", "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	httpPost(t, ts.URL+"/jobs", confJobSpec(j, "q", "one"), http.StatusAccepted)
	httpPost(t, ts.URL+"/jobs", confJobSpec(j, "q", "two"), http.StatusTooManyRequests)
}

// A POST body is outside input: one over the server's cap is refused with
// 413 before anything is admitted, and an ordinary spec is still accepted.
func TestHTTPBodyLimit(t *testing.T) {
	s := newServer(t, jobd.Config{})
	h := s.Handler()

	spec := conformance.Generate(47, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, []string{"w0", "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	post := func(path string, v any) int {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		return rec.Code
	}
	pad := strings.Repeat("x", 2<<20)

	// Well-formed but oversized: only the size can be the reason to refuse.
	big := confJobSpec(j, "t", pad)
	if got := post("/jobs", big); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /jobs = %d, want 413", got)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized submission admitted %d job(s)", len(jobs))
	}
	if got := post("/workers", map[string]string{"host": pad, "addr": "127.0.0.1:1"}); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /workers = %d, want 413", got)
	}
	if ws := s.Workers(); len(ws) != 0 {
		t.Fatalf("oversized registration added %d worker(s)", len(ws))
	}

	if got := post("/jobs", confJobSpec(j, "t", "normal")); got != http.StatusAccepted {
		t.Fatalf("normal POST /jobs = %d, want 202", got)
	}
}
