package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"zdr/internal/metrics"
)

// SlotState describes one release slot (or single-instance daemon) for
// /debug/release.
type SlotState struct {
	Name       string `json:"name"`
	Generation int    `json:"generation"`
	// Phase is the release state machine position: "serving",
	// "handing-off", "committed-awaiting-ready" (a ProtoDrainUndo
	// hand-off committed, lease not yet resolved), "rolling-back" (the
	// committed hand-off is unwinding — the readiness gate rejected
	// promotion and the old generation is re-arming from its retained
	// FDs), "rolled-back" (the unwind completed; sticky until the next
	// restart attempt) or "draining".
	Phase          string `json:"phase,omitempty"`
	Draining       bool   `json:"draining"`
	TakeoverArmed  bool   `json:"takeover_armed"`
	ArmError       string `json:"arm_error,omitempty"`
	Takeovers      int64  `json:"takeovers"`
	TakeoverAborts int64  `json:"takeover_aborts"`
	TakeoverUndos  int64  `json:"takeover_undos,omitempty"`
	Drains         int64  `json:"drains"`
	// UpstreamIdle is an Origin's idle keep-alive connections per app
	// server: whether the pool is warm after a takeover.
	UpstreamIdle map[string]int `json:"upstream_idle,omitempty"`
}

// ReleaseState is the JSON body served at /debug/release: the release
// state machine as seen from one process.
type ReleaseState struct {
	Service       string       `json:"service"`
	Draining      bool         `json:"draining"`
	Slots         []SlotState  `json:"slots,omitempty"`
	InFlightSpans []SpanRecord `json:"in_flight_spans,omitempty"`
}

// Admin serves the admin exposition endpoints over plain net/http:
//
//	/metrics        Prometheus text format from Registry
//	/healthz        200 "ok" normally, 503 "draining" while Draining()
//	/debug/release  ReleaseState JSON (in-flight spans filled from Tracer)
//	/debug/<name>   one JSON page per Debug entry (e.g. the release
//	                orchestrator's /debug/rollout)
//
// All fields are optional; absent ones degrade to empty output.
type Admin struct {
	Service      string
	Registry     *metrics.Registry
	Tracer       *Tracer
	Draining     func() bool
	ReleaseState func() ReleaseState
	// Extra registries are rendered into /metrics after Registry.
	// Daemons use it for process-wide accounting that lives outside any
	// one server's registry — e.g. netx's relay counters, which every
	// pump in the process shares.
	Extra []*metrics.Registry
	// Debug mounts extra JSON pages under /debug/: each entry name is
	// served at /debug/<name> by marshalling the function's return value.
	// Daemons use it to expose subsystem state (rollout status, fleet
	// topology) without the obs package knowing the types.
	Debug map[string]func() any
	// Profile mounts the net/http/pprof endpoints under /debug/pprof/.
	// Daemons gate it behind a -profile flag: the handlers are cheap to
	// serve but operators should opt in to exposing them.
	Profile bool
}

// Handler returns the admin HTTP handler.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if a.Registry != nil {
			w.Write([]byte(RenderPrometheus(a.Registry.Snapshot())))
		}
		for _, reg := range a.Extra {
			w.Write([]byte(RenderPrometheus(reg.Snapshot())))
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.Draining != nil && a.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/release", func(w http.ResponseWriter, req *http.Request) {
		state := ReleaseState{Service: a.Service}
		if a.ReleaseState != nil {
			state = a.ReleaseState()
		} else if a.Draining != nil {
			state.Draining = a.Draining()
		}
		if len(state.InFlightSpans) == 0 {
			state.InFlightSpans = a.Tracer.InFlight()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(state)
	})
	if a.Profile {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for name, fn := range a.Debug {
		fn := fn
		mux.HandleFunc("/debug/"+name, func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(fn()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	return mux
}

// AdminServer is a running admin listener.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// Start binds addr (e.g. "127.0.0.1:9090"; port 0 picks a free port) and
// serves the admin endpoints until Close.
func (a *Admin) Start(addr string) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: a.Handler()}
	go srv.Serve(ln)
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address.
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *AdminServer) Close() error { return s.srv.Close() }
