// Command dcsubmit coordinates a distributed isosurface rendering across
// running dcworker processes: it ships the pipeline spec, drives the units
// of work, and prints the aggregated stream statistics.
//
//	dcworker -listen :9101 &   # "host" data1
//	dcworker -listen :9102 &   # "host" viz
//	dcsubmit -workers data1=127.0.0.1:9101,viz=127.0.0.1:9102 \
//	         -merge viz -copies 2 -size 512 -iso 0.5
//
// The rendered image stays on the merge worker's filter instance; pass
// -dir to render a datagen dataset every worker can open, or omit it for
// the synthetic field (reconstructed worker-side from its seed).
//
// Data path: workers exchange stream buffers over TCP, and each RE copy
// reads its chunks while downstream filters compute (DESIGN.md §14).
// -pushdown turns on near-storage predicate pruning: each RE copy checks
// the view's iso-value against the dataset's summary sidecar and skips
// chunks that provably contribute no triangles, before any byte is read
// (DESIGN.md §17).
//
// Fault tolerance: -uow-retries lets the coordinator replan a failed unit
// of work onto the surviving workers (dead hosts' filter copies move to
// survivors); -hb-interval / -hb-misses tune the heartbeat liveness budget
// and -dialtimeout the per-attempt dial timeout everywhere. -faults installs
// a coordinator-side deterministic fault plan (see internal/faults) for
// chaos experiments, e.g. injected dial failures. -seed pins both the fault
// plan's random source and the synthetic field, so a chaos run is
// reproducible from the command line alone; an explicit seed= directive
// inside -faults still wins.
//
// Against a dcjobd server, -server submits the same pipeline as a job over
// HTTP instead of coordinating directly: the worker mesh comes from the
// server's registry (so -workers is not needed), the submission queues
// under -tenant's quota, and dcsubmit polls until the job finishes:
//
//	dcsubmit -server http://localhost:8080 -tenant teamA -size 256
//
// -faults is refused with -server (the server is the coordinator and owns
// its own fault plan); heartbeat, retry, and policy tuning still applies —
// it travels inside the job's options.
//
// Server-side resilience (DESIGN.md §15): -job-retries sets the job's
// whole-job retry budget (the server re-runs a failed job with exponential
// backoff; -1 pins retries off even if the server has a default) and
// -deadline bounds the job's total lifetime — queued or running — after
// which the server cancels it. -cancel <id> cancels an earlier submission
// via DELETE /jobs/{id} and exits. A 503 on submit means the server shed
// the job under overload; retry after the Retry-After interval it reports.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/exec"
	"datacutter/internal/faults"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/jobd"
	"datacutter/internal/obs"
)

func main() {
	var (
		workers = flag.String("workers", "", "comma-separated host=addr pairs (required)")
		merge   = flag.String("merge", "", "host that runs the merge filter (default: first worker)")
		dir     = flag.String("dir", "", "datagen dataset directory readable by every worker (default: synthetic field)")
		copies  = flag.Int("copies", 2, "raster copies per host")
		size    = flag.Int("size", 512, "output image width and height")
		iso     = flag.Float64("iso", 0.5, "isosurface value")
		steps   = flag.Int("timesteps", 1, "consecutive timesteps to render")
		policy  = flag.String("policy", "DD", "default writer policy: RR | WRR | DD | DD/<k>")
		streams = flag.String("stream-policy", "", "per-stream policy overrides, e.g. 'triangles=DD/8,pixels=WRR'")

		pushdown = flag.Bool("pushdown", false, "prune chunks against the store's summary sidecar on the worker owning the data (with -dir)")

		grid    = flag.Int("grid", 65, "synthetic grid samples per axis (without -dir)")
		debug   = flag.String("debug-addr", "", "serve coordinator /metrics and /debug/pprof on this address during the run")
		metrics = flag.Bool("metrics", false, "print the coordinator metrics snapshot after the run")

		retries     = flag.Int("uow-retries", 0, "max per-unit-of-work retries after a host loss (0 = fail fast)")
		hbInterval  = flag.Duration("hb-interval", 0, "heartbeat interval for liveness tracking (default 1s)")
		hbMisses    = flag.Int("hb-misses", 0, "missed heartbeat intervals before a host is declared dead (default 3)")
		dialTimeout = flag.Duration("dialtimeout", 0, "per-attempt dial timeout, coordinator and worker peer mesh (default 10s)")
		faultSpec   = flag.String("faults", "", "coordinator-side deterministic fault plan, e.g. 'faildial=2'")
		seed        = flag.Int64("seed", 0, "seed for the -faults plan and the synthetic field (0 = embedded defaults)")

		server = flag.String("server", "", "dcjobd base URL; submit as a job over HTTP instead of coordinating directly")
		tenant = flag.String("tenant", "", "tenant name for -server submissions")
		name   = flag.String("name", "isoviz", "job name for -server submissions")

		jobRetries = flag.Int("job-retries", 0, "whole-job retry budget on the server (0 = server default, -1 = no retries; with -server)")
		deadline   = flag.Duration("deadline", 0, "total job lifetime, queued plus running, before the server cancels it (with -server)")
		cancelID   = flag.Uint64("cancel", 0, "cancel job <id> on -server and exit")
	)
	flag.Parse()
	if *cancelID != 0 {
		if *server == "" {
			fatal(fmt.Errorf("-cancel needs -server"))
		}
		cancelJob(*server, *cancelID)
		return
	}
	if *server != "" && *faultSpec != "" {
		fatal(fmt.Errorf("-faults is coordinator-side; with -server the job server coordinates"))
	}
	if *server == "" && *workers == "" {
		fmt.Fprintln(os.Stderr, "dcsubmit: -workers is required (or -server)")
		flag.Usage()
		os.Exit(2)
	}
	addrs := map[string]string{}
	var hosts []string
	if *server != "" {
		for _, w := range fetchWorkers(*server) {
			addrs[w.Host] = w.Addr
			hosts = append(hosts, w.Host)
		}
		if len(hosts) == 0 {
			fatal(fmt.Errorf("server %s has no registered workers", *server))
		}
	} else {
		for _, pair := range strings.Split(*workers, ",") {
			host, addr, ok := strings.Cut(pair, "=")
			if !ok {
				fatal(fmt.Errorf("bad -workers entry %q (want host=addr)", pair))
			}
			addrs[host] = addr
			hosts = append(hosts, host)
		}
	}
	mergeHost := *merge
	if mergeHost == "" {
		mergeHost = hosts[0]
	}
	if _, ok := addrs[mergeHost]; !ok {
		fatal(fmt.Errorf("merge host %q not among workers", mergeHost))
	}

	if *dir == "" && *pushdown {
		fatal(fmt.Errorf("-pushdown needs -dir"))
	}
	fieldSeed := int64(2002)
	if *seed != 0 {
		fieldSeed = *seed
	}
	spec, err := pipelineGraph(
		isoviz.StoreREParams{Dir: *dir, Pushdown: *pushdown},
		isoviz.FieldREParams{
			Seed: fieldSeed, Plumes: 5,
			GX: *grid, GY: *grid, GZ: *grid, BX: 4, BY: 4, BZ: 4,
		})
	if err != nil {
		fatal(err)
	}

	var placement []dist.PlacementEntry
	for _, h := range hosts {
		placement = append(placement,
			dist.PlacementEntry{Filter: "RE", Host: h, Copies: 1},
			dist.PlacementEntry{Filter: "Ra", Host: h, Copies: *copies},
		)
	}
	placement = append(placement, dist.PlacementEntry{Filter: "M", Host: mergeHost, Copies: 1})

	var uows []any
	for t := 0; t < *steps; t++ {
		uows = append(uows, isoviz.View{
			Timestep: t, Iso: float32(*iso),
			Width: *size, Height: *size, Camera: geom.DefaultCamera(),
		})
	}

	var o *obs.Observer
	var reg *obs.Registry
	if *debug != "" || *metrics {
		reg = obs.NewRegistry()
		o = obs.New(nil, reg)
		o.SetClock(obs.NewWallClock())
		if *debug != "" {
			dbg, err := obs.ServeDebug(*debug, reg, nil)
			if err != nil {
				fatal(err)
			}
			defer dbg.Close()
			fmt.Printf("coordinator debug endpoint on http://%s/\n", dbg.Addr)
		}
	}

	streamPolicy, err := exec.ParseStreamPolicies(*streams)
	if err != nil {
		fatal(err)
	}

	opts := dist.Options{
		Policy:            *policy,
		StreamPolicy:      streamPolicy,
		MaxUOWRetries:     *retries,
		HeartbeatInterval: *hbInterval,
		HeartbeatMisses:   *hbMisses,
		DialTimeout:       *dialTimeout,
	}
	if *faultSpec != "" {
		// Prepend so a later, explicit seed= directive in the plan still
		// overrides (the parser applies the last one it sees).
		planSpec := *faultSpec
		if *seed != 0 {
			planSpec = fmt.Sprintf("seed=%d; %s", *seed, planSpec)
		}
		plan, err := faults.ParsePlan(planSpec)
		if err != nil {
			fatal(err)
		}
		opts = opts.WithFaults(plan.Injector())
	}
	var stats *core.Stats
	if *server != "" {
		stats = submitJob(*server, jobd.JobSpec{
			Name: *name, Tenant: *tenant,
			Graph: spec, Placement: placement, Options: opts,
			UOWs:       encodeUOWs(uows),
			MaxRetries: *jobRetries, Deadline: *deadline,
		})
	} else {
		st, err := dist.RunObserved(addrs, spec, placement, opts, uows, o)
		if err != nil {
			fatal(err)
		}
		stats = st
	}
	if *metrics {
		fmt.Println("coordinator metrics snapshot:")
		reg.WriteJSON(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("rendered %d timestep(s) at %dx%d across %d workers (merge on %s, %s policy)\n",
		*steps, *size, *size, len(hosts), mergeHost, *policy)
	for _, name := range stats.StreamNames() {
		ss := stats.Streams[name]
		fmt.Printf("  stream %-10s %6d buffers %9.2f MB %6d acks  per host: %v\n",
			name, ss.Buffers, float64(ss.Bytes)/1e6, ss.Acks, ss.PerTargetHost)
	}
}

// pipelineGraph is the RE -> Ra -> M spec dcsubmit ships, its source
// reconstructed worker-side: the datagen store when store.Dir is set, the
// synthetic field otherwise.
func pipelineGraph(store isoviz.StoreREParams, field isoviz.FieldREParams) (dist.GraphSpec, error) {
	if store.Dir != "" {
		return isoviz.ReadExtract.DistGraph(isoviz.ActivePixel, &store, nil)
	}
	return isoviz.ReadExtract.DistGraph(isoviz.ActivePixel, nil, &field)
}

// fetchWorkers lists the server's registered workers (host-ordered).
func fetchWorkers(server string) []struct{ Host, Addr string } {
	resp, err := http.Get(server + "/workers")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s/workers: %s: %s", server, resp.Status, body))
	}
	var out []struct{ Host, Addr string }
	if err := json.Unmarshal(body, &out); err != nil {
		fatal(fmt.Errorf("GET %s/workers: %w", server, err))
	}
	return out
}

func encodeUOWs(uows []any) []dist.RawUOW {
	out := make([]dist.RawUOW, 0, len(uows))
	for _, u := range uows {
		raw, err := dist.EncodeUOW(u)
		if err != nil {
			fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// submitJob POSTs the spec to a dcjobd server and polls until the job
// leaves the queue and finishes, returning its aggregated stats.
func submitJob(server string, spec jobd.JobSpec) *core.Stats {
	body, err := json.Marshal(spec)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(server+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fatal(fmt.Errorf("POST %s/jobs: %s: %s", server, resp.Status, strings.TrimSpace(string(reply))))
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil {
		fatal(err)
	}
	fmt.Printf("submitted job %d to %s\n", sub.ID, server)

	var last jobd.State
	for {
		var j jobd.Job
		got := httpJSON(fmt.Sprintf("%s/jobs/%d", server, sub.ID), &j)
		if got != http.StatusOK {
			fatal(fmt.Errorf("job %d vanished from the server (status %d)", sub.ID, got))
		}
		if j.State != last {
			last = j.State
			fmt.Printf("job %d: %s\n", sub.ID, j.State)
		}
		switch j.State {
		case jobd.StateDone:
			return j.Stats
		case jobd.StateFailed:
			fatal(fmt.Errorf("job %d failed: %s", sub.ID, j.Err))
		case jobd.StateCancelled:
			fatal(fmt.Errorf("job %d cancelled: %s", sub.ID, j.Err))
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// cancelJob asks the server to cancel a job: DELETE /jobs/{id}. A 202 means
// the cancellation was accepted (queued jobs cancel immediately; running
// jobs are torn down asynchronously); 409 means the job already finished.
func cancelJob(server string, id uint64) {
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", server, id), nil)
	if err != nil {
		fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	switch resp.StatusCode {
	case http.StatusAccepted:
		fmt.Printf("job %d: cancellation accepted\n", id)
	case http.StatusConflict:
		fatal(fmt.Errorf("job %d already finished: %s", id, strings.TrimSpace(string(body))))
	default:
		fatal(fmt.Errorf("DELETE %s/jobs/%d: %s: %s", server, id, resp.Status, strings.TrimSpace(string(body))))
	}
}

func httpJSON(url string, v any) int {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			fatal(fmt.Errorf("GET %s: %w", url, err))
		}
	}
	return resp.StatusCode
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsubmit:", err)
	os.Exit(1)
}
