// Command dcjobd runs the persistent multi-tenant job server: it accepts
// pipeline submissions over HTTP, queues them under per-tenant quotas, and
// coordinates each job over a shared mesh of persistent dcworker processes
// (workers register themselves with -register; each job's frames carry its
// job id, so many jobs share one mesh safely).
//
//	dcjobd -listen :8080 -journal /var/lib/dc/jobs.jsonl &
//	dcworker -listen :9101 -persistent -host data1 -register http://localhost:8080 &
//	dcworker -listen :9102 -persistent -host viz   -register http://localhost:8080 &
//	dcsubmit -server http://localhost:8080 -size 256
//
// The HTTP surface is documented on jobd.Server.Handler: POST/GET /jobs,
// GET /jobs/{id}(,/events,/metrics), POST/GET /workers, GET /status, plus
// the layered obs endpoints /healthz, /metrics, and /debug/pprof.
//
// With -journal, every submission is appended to a JSONL write-ahead log
// before it is acknowledged; a restarted server replays the log and re-runs
// any job that had not finished. SIGINT/SIGTERM drain gracefully: new
// submissions are refused, running jobs get -drain-timeout to finish, and
// the final metrics snapshot is printed before exit.
//
// Per-tenant quotas use the grammar 'tenant=maxRunning:maxQueued:maxBytes'
// (0 = unlimited), e.g. -quotas 'teamA=1:4:0,teamB=2:16:1048576'; -quota
// sets the default for unlisted tenants.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datacutter/internal/jobd"
	"datacutter/internal/obs"
)

// options are the parsed command-line flags: the listen address, the drain
// bound, and everything else as the server's configuration.
type options struct {
	listen       string
	drainTimeout time.Duration
	cfg          jobd.Config
}

// parseFlags parses args; on an error it has printed the reason and the
// usage.
func parseFlags(args []string) (options, error) {
	var o options
	c := &o.cfg
	fs := flag.NewFlagSet("dcjobd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8080", "HTTP API address")
	fs.StringVar(&c.JournalPath, "journal", "", "write-ahead job journal path (JSONL; empty disables persistence)")
	fs.IntVar(&c.MaxRunning, "max-concurrent", 0, "max concurrently running jobs across all tenants (default 4)")
	defQuota := fs.String("quota", "", "default per-tenant quota as maxRunning:maxQueued:maxBytes (0 = unlimited)")
	quotas := fs.String("quotas", "", "per-tenant overrides, e.g. 'teamA=1:4:0,teamB=2:16:1048576'")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", 0, "worker health-probe period (default 2s)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max wait for running jobs on SIGINT/SIGTERM")

	fs.IntVar(&c.DefaultMaxRetries, "max-retries", 0, "default retry budget for jobs that do not set one (default 0: no retries)")
	fs.DurationVar(&c.RetryBackoff, "retry-backoff", 0, "base of the exponential retry backoff (default 500ms)")
	fs.DurationVar(&c.RetryBackoffMax, "retry-backoff-max", 0, "retry backoff cap (default 30s)")
	fs.IntVar(&c.QuarantineStrikes, "quarantine-strikes", 0, "attributed failures before a worker is quarantined (default 3)")
	fs.DurationVar(&c.Probation, "probation", 0, "quarantine sit-out before the half-open reinstatement probe (default 30s)")
	fs.DurationVar(&c.MaxQueueAge, "max-queue-age", 0, "shed a tenant's submissions while its oldest queued job is older than this (0 disables)")
	fs.IntVar(&c.MaxQueueDepth, "max-queue-depth", 0, "shed submissions when the global queue holds this many jobs (0 = unlimited)")
	fs.DurationVar(&c.ShedRetryAfter, "retry-after", 0, "Retry-After hint on shed (503) responses (default 5s)")
	fs.Int64Var(&c.JournalCompactBytes, "journal-compact", 0, "compact the journal once it exceeds this many bytes (default 4 MiB)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	err := o.parseQuotas(*defQuota, *quotas)
	if err != nil {
		fmt.Fprintln(fs.Output(), "dcjobd:", err)
		fs.Usage()
	}
	return o, err
}

// parseQuotas fills the configuration's default and per-tenant quotas.
func (o *options) parseQuotas(def, overrides string) error {
	if def != "" {
		q, err := parseQuota(def)
		if err != nil {
			return err
		}
		o.cfg.DefaultQuota = q
	}
	if overrides == "" {
		return nil
	}
	o.cfg.Quotas = map[string]jobd.Quota{}
	for _, entry := range strings.Split(overrides, ",") {
		tenant, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("bad -quotas entry %q (want tenant=maxRunning:maxQueued:maxBytes)", entry)
		}
		q, err := parseQuota(spec)
		if err != nil {
			return err
		}
		o.cfg.Quotas[tenant] = q
	}
	return nil
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(opt, sig, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dcjobd:", err)
		os.Exit(1)
	}
}

// run serves the job API on opt.listen until stop delivers a signal, then
// drains the server, prints its final metrics snapshot to out and closes
// it. started, when non-nil, learns the bound address once the API serves.
func run(opt options, stop <-chan os.Signal, out io.Writer, started func(addr string)) error {
	opt.cfg.Registry = obs.NewRegistry()
	s, err := jobd.NewServer(opt.cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", opt.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "dcjobd serving on http://%s/ (journal: %s)\n", ln.Addr(), orNone(opt.cfg.JournalPath))
	if started != nil {
		started(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case got := <-stop:
		fmt.Fprintf(out, "dcjobd: %s — draining (up to %s for running jobs)\n", got, opt.drainTimeout)
	}
	if !s.Drain(opt.drainTimeout) {
		fmt.Fprintln(os.Stderr, "dcjobd: drain timed out with jobs still running")
	}
	srv.Close()
	fmt.Fprintln(out, "dcjobd final metrics snapshot:")
	opt.cfg.Registry.WriteJSON(out)
	fmt.Fprintln(out)
	return nil
}

// parseQuota decodes maxRunning:maxQueued:maxBytes; trailing fields may be
// omitted ("2" caps running only).
func parseQuota(spec string) (jobd.Quota, error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return jobd.Quota{}, fmt.Errorf("bad quota %q (want maxRunning:maxQueued:maxBytes)", spec)
	}
	var q jobd.Quota
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil || n < 0 {
			return jobd.Quota{}, fmt.Errorf("bad quota %q: field %d", spec, i+1)
		}
		switch i {
		case 0:
			q.MaxRunning = int(n)
		case 1:
			q.MaxQueued = int(n)
		case 2:
			q.MaxQueuedBytes = n
		}
	}
	return q, nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
