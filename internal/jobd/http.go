package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"datacutter/internal/obs"
)

// Handler returns the server's HTTP API, layered over the obs debug
// endpoint (so /healthz, /metrics, /debug/* come along for free):
//
//	POST   /jobs             submit a JobSpec (JSON body) -> {"id": N}, 202
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job snapshot (spec, state, stats when done)
//	DELETE /jobs/{id}        cancel a job -> 202 + snapshot (409 if terminal)
//	GET    /jobs/{id}/events the job's timestamped history
//	GET    /jobs/{id}/metrics the job's isolated coordinator metrics
//	POST   /workers          register a worker: {"host","addr","health"}
//	GET    /workers          list registered workers and their health
//	GET    /status           human-readable summary page
//
// Admission failures map to statuses: quota 429, draining 503, bad spec
// 400, a body over maxBodyBytes 413, load shedding 503 with a Retry-After
// header so clients back off.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if !decodeBody(w, r, &spec, "job spec") {
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			if errors.Is(err, ErrOverload) {
				w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.shedRetryAfter().Seconds())))
			}
			http.Error(w, err.Error(), submitStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]uint64{"id": id})
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		j, err := s.Cancel(id)
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(j)
		case errors.Is(err, ErrTerminal):
			http.Error(w, err.Error(), http.StatusConflict)
		default:
			http.NotFound(w, r)
		}
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Jobs())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		j, found := s.Get(id)
		if !found {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, j)
	})

	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		events, found := s.Events(id)
		if !found {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, events)
	})

	mux.HandleFunc("GET /jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		m, found := s.JobMetrics(id)
		if !found {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, m)
	})

	mux.HandleFunc("POST /workers", func(w http.ResponseWriter, r *http.Request) {
		var reg struct {
			Host   string `json:"host"`
			Addr   string `json:"addr"`
			Health string `json:"health"`
		}
		if !decodeBody(w, r, &reg, "worker registration") {
			return
		}
		if reg.Host == "" || reg.Addr == "" {
			http.Error(w, "jobd: worker registration needs host and addr", http.StatusBadRequest)
			return
		}
		s.RegisterWorker(reg.Host, reg.Addr, reg.Health)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /workers", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Workers())
	})

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		jobs := s.Jobs()
		counts := map[State]int{}
		for _, j := range jobs {
			counts[j.State]++
		}
		fmt.Fprintf(w, "datacutter job server\n\njobs: %d queued, %d backoff, %d running, %d done, %d failed, %d cancelled\n\n",
			counts[StateQueued], counts[StateBackoff], counts[StateRunning],
			counts[StateDone], counts[StateFailed], counts[StateCancelled])
		for _, wk := range s.Workers() {
			health := "healthy"
			switch {
			case wk.Quarantined:
				health = fmt.Sprintf("QUARANTINED (strikes=%d, probation at %s)",
					wk.Strikes, wk.ProbationAt.Format("15:04:05"))
			case !wk.Healthy:
				health = "UNHEALTHY"
			case wk.Strikes > 0:
				health = fmt.Sprintf("healthy (strikes=%d)", wk.Strikes)
			}
			fmt.Fprintf(w, "worker %-10s %-21s %s\n", wk.Host, wk.Addr, health)
		}
		fmt.Fprintln(w)
		for _, j := range jobs {
			fmt.Fprintf(w, "job %-4d %-8s tenant=%-10s %s\n", j.ID, j.State, orDefault(j.Spec.Tenant), j.Spec.Name)
		}
	})

	// Everything else — /healthz, /metrics (the server's own registry),
	// /debug/pprof — falls through to the obs debug handler.
	mux.Handle("/", obs.Handler(s.reg, nil))
	return mux
}

// maxBodyBytes bounds a POST body. A job spec is a graph, a placement and
// one small descriptor per unit of work — kilobytes; the cap only keeps a
// hostile or broken client from making the server buffer without limit.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v, answering 413 for a
// body over maxBodyBytes and 400 for anything else that does not parse.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "jobd: bad "+what+": "+err.Error(), status)
	return false
}

func orDefault(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

func jobID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "jobd: bad job id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverload):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
