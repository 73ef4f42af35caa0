package svc

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/dist"
	"repro/internal/svc/api"
)

// tenantFor authenticates a campaign-API request. In open mode (no
// tenants configured) every request acts as the anonymous tenant.
func (s *Service) tenantFor(r *http.Request) (string, *api.Error) {
	if len(s.byToken) == 0 {
		return "", nil
	}
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if !strings.HasPrefix(h, prefix) {
		return "", apiErr(http.StatusUnauthorized, api.CodeUnauthorized, "missing bearer token")
	}
	t := s.byToken[strings.TrimSpace(strings.TrimPrefix(h, prefix))]
	if t == nil {
		return "", apiErr(http.StatusUnauthorized, api.CodeUnauthorized, "unknown token")
	}
	return t.Name, nil
}

func writeAPIError(w http.ResponseWriter, err error) {
	var ae *api.Error
	if errors.As(err, &ae) {
		api.WriteError(w, ae.StatusCode, ae.Code, "%s", ae.Message)
		return
	}
	api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
}

// authed wraps a campaign-API handler with bearer authentication.
func (s *Service) authed(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, aerr := s.tenantFor(r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		h(w, r, tenant)
	}
}

func (s *Service) campaignByID(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.camps[id]
}

// Handler returns the service's full /v1 HTTP surface: the tenant
// campaign API, the campaign-scoped worker and observability plane,
// the fleet worker protocol, and the service-wide telemetry endpoints
// (with their deprecated unprefixed aliases).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	// Campaign queue API (bearer-authenticated when tenants are set).
	mux.HandleFunc("/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		tenant, aerr := s.tenantFor(r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		switch r.Method {
		case http.MethodGet:
			api.WriteJSON(w, s.List(tenant))
		case http.MethodPost:
			var req api.SubmitRequest
			if !api.ReadJSON(w, r, &req) {
				return
			}
			st, err := s.Submit(tenant, req)
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, st)
		default:
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET or POST only")
		}
	})
	mux.HandleFunc("/v1/campaigns/{id}", dist.MethodOnly(http.MethodGet,
		s.authed(func(w http.ResponseWriter, r *http.Request, tenant string) {
			st, err := s.Get(tenant, r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, st)
		})))
	mux.HandleFunc("/v1/campaigns/{id}/cancel", dist.MethodOnly(http.MethodPost,
		s.authed(func(w http.ResponseWriter, r *http.Request, tenant string) {
			st, err := s.Cancel(tenant, r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, st)
		})))
	mux.HandleFunc("/v1/campaigns/{id}/results", dist.MethodOnly(http.MethodGet,
		s.authed(func(w http.ResponseWriter, r *http.Request, tenant string) {
			res, err := s.Results(tenant, r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, res)
		})))

	// Campaign-scoped worker and observability plane (open: workers and
	// dashboards are deployment infrastructure, not tenants).
	mux.HandleFunc("/v1/campaigns/{id}/config", dist.MethodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			resp, err := s.CampaignConfig(r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, resp)
		}))
	mux.HandleFunc("/v1/campaigns/{id}/snapshot.json", dist.MethodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			c := s.campaignByID(r.PathValue("id"))
			if c == nil || c.tel == nil {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no telemetry for campaign %q", r.PathValue("id"))
				return
			}
			b, err := c.tel.Snapshot().JSON()
			if err != nil {
				api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(b, '\n'))
		}))
	mux.HandleFunc("/v1/campaigns/{id}/metrics", dist.MethodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			c := s.campaignByID(r.PathValue("id"))
			if c == nil || c.tel == nil {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no telemetry for campaign %q", r.PathValue("id"))
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			c.tel.Snapshot().WritePrometheus(w)
		}))
	mux.HandleFunc("/v1/campaigns/{id}/fleet.json", dist.MethodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			c := s.campaignByID(r.PathValue("id"))
			if c == nil || c.coord == nil {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no fleet view for campaign %q", r.PathValue("id"))
				return
			}
			api.WriteJSON(w, c.coord.Fleet())
		}))
	mux.HandleFunc("/v1/campaigns/{id}/events", dist.MethodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			c := s.campaignByID(r.PathValue("id"))
			if c == nil || c.events == nil {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no event stream for campaign %q", r.PathValue("id"))
				return
			}
			c.events.ServeHTTP(w, r)
		}))

	// Fleet worker protocol. /v1/config deliberately answers not_found:
	// that is how a worker learns it joined a multi-campaign service and
	// must fetch per-campaign configs named by its leases.
	mux.HandleFunc("/v1/config", dist.MethodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
				"multi-campaign service: leases name their campaign; fetch /v1/campaigns/{id}/config")
		}))
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req api.LeaseRequest
		if !api.ReadJSON(w, r, &req) {
			return
		}
		if req.WorkerID == "" {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "worker_id is required")
			return
		}
		api.WriteJSON(w, s.Lease(req.WorkerID))
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req api.HeartbeatRequest
		if !api.ReadJSON(w, r, &req) {
			return
		}
		api.WriteJSON(w, s.Heartbeat(req))
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req api.CompleteRequest
		if !api.ReadJSON(w, r, &req) {
			return
		}
		api.WriteJSON(w, s.Complete(req))
	})
	mux.HandleFunc("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		var req api.SnapshotRequest
		if !api.ReadJSON(w, r, &req) {
			return
		}
		api.WriteJSON(w, s.PushSnapshot(req))
	})

	// Service-wide observability plane.
	dist.MountObs(mux, dist.ObsEndpoints{
		Snapshot: s.FleetSnapshot,
		Fleet:    s.Fleet,
		Events:   http.HandlerFunc(s.serveEvents),
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no such endpoint: %s", r.URL.Path)
			return
		}
		fmt.Fprintln(w, "faultcampd service: /v1/campaigns  /v1/campaigns/{id}{,/cancel,/results,/config,/events,/snapshot.json,/metrics,/fleet.json}  /v1/{lease,heartbeat,complete,snapshot}  /v1/{snapshot.json,metrics,fleet.json,events}")
	})
	return mux
}

// serveEvents is the service-root SSE feed: it follows the liveliest
// campaign (the newest non-terminal one, or the newest overall), which
// makes the root endpoint behave exactly like the single-campaign
// coordinator's when only one campaign exists.
func (s *Service) serveEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var best *campaign
	for _, c := range s.camps {
		if c.events == nil {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		bestLive := !api.TerminalState(best.entry.State)
		live := !api.TerminalState(c.entry.State)
		if live != bestLive {
			if live {
				best = c
			}
			continue
		}
		if c.entry.Seq > best.entry.Seq {
			best = c
		}
	}
	s.mu.Unlock()
	if best == nil {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no campaign event stream yet")
		return
	}
	best.events.ServeHTTP(w, r)
}
