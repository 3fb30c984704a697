// Command dcworker serves one host of a distributed DataCutter run: it
// listens for a coordinator, builds the filter copies placed on its host
// name, and exchanges stream buffers with peer workers over TCP (the
// deployment model of the original DataCutter prototype).
//
// The worker can construct any filter kind registered by the packages it
// imports; this binary imports the isosurface application, so it serves
// isoviz pipelines. Run one worker per host:
//
//	dcworker -listen :9101   # on node1
//	dcworker -listen :9102 -debug-addr :6060   # on node2, with live metrics
//
// then point a coordinator (e.g. examples/distributed) at the addresses.
//
// With -debug-addr, the worker serves /metrics (live frame/byte/ack
// counters, flush batching gauges — dist.tx.flushes and
// dist.tx.frames_per_flush — and stall histograms as JSON), /debug/events
// (recent buffer-lifecycle trace events), and /debug/pprof/. With -trace,
// every trace event is also appended to a JSONL file.
//
// For chaos testing, -faults installs a deterministic fault plan (see
// internal/faults for the grammar) on every connection this worker opens or
// accepts — e.g. -faults 'kill=data:100' crashes the process model after
// 100 received data frames. The per-attempt peer dial timeout comes from
// the coordinator's options (dcsubmit -dialtimeout).
//
// As a persistent mesh member for a dcjobd server, the worker registers
// itself (and re-registers periodically, so a restarted server re-learns
// the mesh) and keeps serving between jobs:
//
//	dcworker -listen :9101 -host data1 -register http://jobd:8080 \
//	         -debug-addr :6061
//
// -host is the placement name jobs address this worker by; -advertise
// overrides the dist address sent to the server (defaults to the listen
// address). SIGINT/SIGTERM drain gracefully: active job sessions get
// -drain-timeout to finish (a second signal aborts immediately), then the
// final metrics snapshot is flushed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "datacutter/internal/conformance" // register the conformance filter kind
	"datacutter/internal/dist"
	"datacutter/internal/faults"
	_ "datacutter/internal/isoviz" // register the isosurface filter kinds
	"datacutter/internal/obs"
)

// options are the parsed command-line flags.
type options struct {
	listen, debugAddr, trace, register, host, advertise string
	faults                                              *faults.Plan // nil: no fault plan
	drainTimeout                                        time.Duration
}

// parseFlags parses args; on an error it has printed the reason and the
// usage.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("dcworker", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:9101", "address to listen on")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /debug/events, /debug/pprof on this address (e.g. :6060)")
	fs.StringVar(&o.trace, "trace", "", "append buffer-lifecycle trace events to this JSONL file")
	faultSpec := fs.String("faults", "", "deterministic fault plan, e.g. 'seed=7; drop=triangles:100; kill=data:500'")
	fs.StringVar(&o.register, "register", "", "dcjobd base URL to register with (e.g. http://localhost:8080)")
	fs.StringVar(&o.host, "host", "", "placement host name to register as (required with -register)")
	fs.StringVar(&o.advertise, "advertise", "", "dist address to advertise to the server (default: the listen address)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max wait for active job sessions on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case o.register != "" && o.host == "":
		err = errors.New("-register requires -host")
	case *faultSpec != "":
		o.faults, err = faults.ParsePlan(*faultSpec)
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), "dcworker:", err)
		fs.Usage()
	}
	return o, err
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	w, err := dist.NewWorker(opt.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcworker:", err)
		os.Exit(1)
	}
	if opt.faults != nil {
		w.SetFaults(opt.faults.Injector())
		fmt.Printf("dcworker fault plan active: %s\n", opt.faults)
	}

	var (
		o          *obs.Observer
		traceF     *os.File
		healthAddr string
	)
	if opt.debugAddr != "" || opt.trace != "" {
		reg := obs.NewRegistry()
		ring := obs.NewRingSink(4096)
		sinks := []obs.Sink{ring}
		if opt.trace != "" {
			f, err := os.Create(opt.trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dcworker:", err)
				os.Exit(1)
			}
			traceF = f
			sinks = append(sinks, obs.NewJSONLSink(f))
		}
		o = obs.New(obs.Tee(sinks...), reg)
		o.SetClock(obs.NewWallClock())
		w.SetObserver(o)
		if opt.debugAddr != "" {
			dbg, err := obs.ServeDebug(opt.debugAddr, reg, ring)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dcworker:", err)
				os.Exit(1)
			}
			healthAddr = dbg.Addr
			fmt.Printf("dcworker debug endpoint on http://%s/\n", dbg.Addr)
		}
	}

	fmt.Printf("dcworker listening on %s\n", w.Addr())
	if opt.register != "" {
		addr := opt.advertise
		if addr == "" {
			addr = w.Addr()
		}
		go registerLoop(opt.register, opt.host, addr, healthAddr)
	}
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		got := <-ch
		fmt.Printf("dcworker: %s — draining (up to %s for active sessions)\n", got, opt.drainTimeout)
		done := make(chan bool, 1)
		go func() { done <- w.Drain(opt.drainTimeout) }()
		select {
		case ok := <-done:
			if !ok {
				fmt.Fprintln(os.Stderr, "dcworker: drain timed out with sessions active")
			}
		case <-ch:
			fmt.Fprintln(os.Stderr, "dcworker: second signal — aborting")
		}
		w.Close()
	}()
	w.Serve()
	if o != nil {
		o.Flush()
	}
	if traceF != nil {
		traceF.Close()
	}
}

// registerLoop announces the worker to a dcjobd server and renews the
// registration periodically, so a server restarted from its journal
// re-learns the mesh without operator help.
func registerLoop(server, host, addr, health string) {
	body, err := json.Marshal(map[string]string{"host": host, "addr": addr, "health": health})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcworker: register:", err)
		return
	}
	client := &http.Client{Timeout: 5 * time.Second}
	registered := false
	for {
		resp, err := client.Post(server+"/workers", "application/json", bytes.NewReader(body))
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "dcworker: register:", err)
		case resp.StatusCode != http.StatusNoContent:
			fmt.Fprintf(os.Stderr, "dcworker: register: server said %s\n", resp.Status)
		case !registered:
			registered = true
			fmt.Printf("dcworker registered as %q with %s\n", host, server)
		}
		if resp != nil {
			resp.Body.Close()
		}
		time.Sleep(5 * time.Second)
	}
}
