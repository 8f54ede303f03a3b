package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geovmp"
	"geovmp/internal/sim"
)

// serveSize fixes the serve workload: the geo5dc-dynamic churn log at a
// fleet scale over a number of hourly slots, replayed over conns
// connections.
type serveSize struct {
	scale float64
	hours int
	conns int
}

// handlerHeader carries the server-side handler time (ns) of a traced
// request back to the client, so transport time is measured per request.
const handlerHeader = "Bench-Handler-Ns"

// serveOp is one pre-encoded request of the log.
type serveOp struct {
	path string
	body []byte
	id   int
}

// serveSlot is one hour of the log: its observation, then its departures
// and arrivals, in log order.
type serveSlot struct {
	observe    []byte
	observeVMs int
	ops        []serveOp
}

// serveInput is the serve workload's generated input.
type serveInput struct {
	spec     geovmp.Spec
	sc       *geovmp.Scenario
	slots    []serveSlot
	places   int
	departs  int
	logS     float64 // time deriving the event log from the workload
	daemon   *running
	numDCs   int
	numConns int
}

// Wire forms of the daemon's HTTP API (see internal/serve/http.go).
type (
	placeReq struct {
		ID      int       `json:"id"`
		Profile []float64 `json:"profile"`
		Image   float64   `json:"image,omitempty"`
	}
	placeResp struct {
		ID        int     `json:"id"`
		DC        int     `json:"dc"`
		LatencyMS float64 `json:"latency_ms"`
	}
	departReq struct {
		ID int `json:"id"`
	}
	departResp struct {
		Removed bool `json:"removed"`
	}
	vmProfile struct {
		ID      int       `json:"id"`
		Profile []float64 `json:"profile"`
	}
	volume struct {
		From int     `json:"from"`
		To   int     `json:"to"`
		Vol  float64 `json:"vol"`
	}
	observeReq struct {
		Slot    int64       `json:"slot"`
		VMs     []vmProfile `json:"vms,omitempty"`
		Volumes []volume    `json:"volumes,omitempty"`
	}
	healthResp struct {
		Residents int `json:"residents"`
	}
)

// newServeInput builds the scenario from the seed, derives its event log,
// encodes every request and starts a daemon — the serve set-up.
func newServeInput(size serveSize, seed uint64) (*serveInput, error) {
	spec, err := geovmp.Preset("geo5dc-dynamic")
	if err != nil {
		return nil, err
	}
	spec.Scale = size.scale
	spec.Seed = seed
	spec.Horizon = geovmp.HoursOf(size.hours)
	// The log does not depend on the fine step; the cost check's
	// simulation does, and 300 s keeps it short.
	spec.FineStepSec = 300
	sc, err := geovmp.NewScenario(spec)
	if err != nil {
		return nil, err
	}
	// The load generator stays within the machine's cores.
	in := &serveInput{spec: spec, sc: sc, numDCs: len(sc.Fleet), numConns: min(size.conns, runtime.GOMAXPROCS(0))}
	start := time.Now()
	events := geovmp.EventsFromWorkload(sc.Workload, spec.Horizon, sim.ResolveProfileSamples(sc.ProfileSamples))
	in.logS = time.Since(start).Seconds()
	for _, ev := range events {
		switch ev.Kind {
		case geovmp.EvObserve:
			req := observeReq{Slot: int64(ev.Obs.Slot)}
			for _, v := range ev.Obs.VMs {
				req.VMs = append(req.VMs, vmProfile{ID: v.ID, Profile: v.Profile})
			}
			for _, v := range ev.Obs.Volumes {
				req.Volumes = append(req.Volumes, volume{From: v.From, To: v.To, Vol: float64(v.Vol)})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			in.slots = append(in.slots, serveSlot{observe: body, observeVMs: len(req.VMs)})
		case geovmp.EvDepart, geovmp.EvPlace:
			if len(in.slots) == 0 {
				return nil, fmt.Errorf("event log starts without an observation")
			}
			op := serveOp{path: "/v1/depart", id: ev.ID}
			var v any = departReq{ID: ev.ID}
			if ev.Kind == geovmp.EvPlace {
				op = serveOp{path: "/v1/place", id: ev.VM.ID}
				v = placeReq{ID: ev.VM.ID, Profile: ev.VM.Profile, Image: float64(ev.VM.Image)}
				in.places++
			} else {
				in.departs++
			}
			if op.body, err = json.Marshal(v); err != nil {
				return nil, err
			}
			s := &in.slots[len(in.slots)-1]
			s.ops = append(s.ops, op)
		default:
			return nil, fmt.Errorf("unexpected event kind %v in the churn log", ev.Kind)
		}
	}
	if in.daemon, err = startDaemon(sc, in.numConns, false); err != nil {
		return nil, err
	}
	return in, nil
}

// running is a daemon served over loopback HTTP.
type running struct {
	d      *geovmp.Daemon
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon starts a fresh daemon with default options behind a
// loopback listener, with a client of at most conns connections; traced
// wraps the handler with a timer.
func startDaemon(sc *geovmp.Scenario, conns int, traced bool) (*running, error) {
	d, err := geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
	if err != nil {
		return nil, err
	}
	h := d.Handler()
	if traced {
		h = timeHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rn := &running{
		d:      d,
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			// A request the daemon never answers fails the run instead
			// of hanging it.
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { rn.served <- rn.srv.Serve(ln) }()
	return rn, nil
}

// stop shuts the listener down and waits for the serve loop to return.
func (rn *running) stop() {
	rn.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rn.srv.Shutdown(ctx) // an error only means open connections were cut
	<-rn.served
	rn.d.Drain()
}

// timeHandler reports each request's handler time in handlerHeader. The
// header is set when the inner handler writes its status, after it has
// finished its work.
func timeHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&timedWriter{ResponseWriter: w, start: time.Now()}, r)
	})
}

type timedWriter struct {
	http.ResponseWriter
	start time.Time
	wrote bool
}

func (w *timedWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Set(handlerHeader, strconv.FormatInt(time.Since(w.start).Nanoseconds(), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// samples are one connection's per-request measurements, in seconds.
type samples struct {
	place, observe, depart []float64 // client round trips
	decision               []float64 // the daemon's own decision latency
	handler                map[string][]float64
	transport              []float64
	placed, removed        int
	failures               []string
}

func newSamples() *samples { return &samples{handler: map[string][]float64{}} }

func (s *samples) merge(o *samples) {
	s.place = append(s.place, o.place...)
	s.observe = append(s.observe, o.observe...)
	s.depart = append(s.depart, o.depart...)
	s.decision = append(s.decision, o.decision...)
	for k, v := range o.handler {
		s.handler[k] = append(s.handler[k], v...)
	}
	s.transport = append(s.transport, o.transport...)
	s.placed += o.placed
	s.removed += o.removed
	s.failures = append(s.failures, o.failures...)
}

// post sends one request and decodes a 200 answer into out; it returns
// the client round trip and whether the request succeeded.
func (rn *running) post(s *samples, path string, body []byte, out any) (float64, bool) {
	start := time.Now()
	resp, err := rn.client.Post(rn.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("%s: %v", path, err))
		return 0, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start).Seconds()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.failures = append(s.failures, fmt.Sprintf("%s: status %d %v %s", path, resp.StatusCode, err, bytes.TrimSpace(data)))
		return rtt, false
	}
	if h := resp.Header.Get(handlerHeader); h != "" {
		if ns, err := strconv.ParseInt(h, 10, 64); err == nil {
			s.handler[path] = append(s.handler[path], float64(ns)/1e9)
			s.transport = append(s.transport, rtt-float64(ns)/1e9)
		}
	}
	if err := json.Unmarshal(data, out); err != nil {
		s.failures = append(s.failures, fmt.Sprintf("%s: decode %v", path, err))
		return rtt, false
	}
	return rtt, true
}

// servePass is one replay of the log through a fresh daemon.
type servePass struct {
	wall     float64
	s        *samples
	counters map[string]int64
}

// replay sends the log in a closed loop: each slot's observation first,
// then its departures and arrivals over numConns connections, and the
// next slot only after every request of this one has been answered.
func (in *serveInput) replay(rn *running, r *report) (*servePass, error) {
	all := newSamples()
	placed := map[int]bool{}
	start := time.Now()
	for _, sl := range in.slots {
		var ok struct{ OK bool }
		rtt, good := rn.post(all, "/v1/observe", sl.observe, &ok)
		if good {
			all.observe = append(all.observe, rtt)
		}
		conns := make([]*samples, in.numConns)
		newPlaced := make([][]int, in.numConns)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range conns {
			conns[c] = newSamples()
			wg.Add(1)
			go func(s *samples, mine *[]int) {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(sl.ops) {
						return
					}
					op := sl.ops[k]
					if op.path == "/v1/place" {
						var resp placeResp
						rtt, good := rn.post(s, op.path, op.body, &resp)
						if !good {
							continue
						}
						if resp.ID != op.id || resp.DC < 0 || resp.DC >= in.numDCs {
							s.failures = append(s.failures, fmt.Sprintf("place %d: answered id %d dc %d", op.id, resp.ID, resp.DC))
							continue
						}
						s.place = append(s.place, rtt)
						s.decision = append(s.decision, resp.LatencyMS/1e3)
						s.placed++
						*mine = append(*mine, op.id)
						continue
					}
					var resp departResp
					rtt, good := rn.post(s, op.path, op.body, &resp)
					if !good {
						continue
					}
					if resp.Removed {
						s.removed++
					} else if placed[op.id] {
						s.failures = append(s.failures, fmt.Sprintf("depart %d: placed VM not removed", op.id))
						continue
					}
					s.depart = append(s.depart, rtt)
				}
			}(conns[c], &newPlaced[c])
		}
		wg.Wait()
		for c, s := range conns {
			all.merge(s)
			for _, id := range newPlaced[c] {
				placed[id] = true
			}
		}
	}
	p := &servePass{wall: time.Since(start).Seconds(), s: all}
	var h healthResp
	resp, err := rn.client.Get(rn.base + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	p.counters = rn.d.Board().Snapshot().Counters

	requests := len(in.slots) + in.places + in.departs
	r.attempted += requests
	r.failed += len(all.failures)
	for i, f := range all.failures {
		if i == 5 {
			fmt.Fprintf(r.log, "check failed: ... %d more\n", len(all.failures)-i)
			break
		}
		fmt.Fprintln(r.log, "check failed:", f)
	}
	r.check(h.Residents == all.placed-all.removed, "healthz residents %d, want places %d - removed departs %d", h.Residents, all.placed, all.removed)
	return p, nil
}

// runPass replays the log through a fresh daemon. The first pass, always
// an untraced one, uses the daemon the set-up started.
func (in *serveInput) runPass(r *report, traced bool) (*servePass, error) {
	rn := in.daemon
	in.daemon = nil
	if rn == nil {
		var err error
		if rn, err = startDaemon(in.sc, in.numConns, traced); err != nil {
			return nil, err
		}
	}
	defer rn.stop()
	return in.replay(rn, r)
}

// serveCost scores the daemon's decisions on the same scenario through
// the ServePolicy simulator adapter: the serve workload's quality guard.
func (in *serveInput) serveCost() (float64, error) {
	sc, err := geovmp.NewScenario(in.spec)
	if err != nil {
		return 0, err
	}
	d, err := geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
	if err != nil {
		return 0, err
	}
	res, err := geovmp.Run(sc, geovmp.ServePolicy(d))
	if err != nil {
		return 0, err
	}
	d.Drain()
	return float64(res.OpCost), nil
}

func runServe(opt options, r *report) error {
	in, setupS, err := medianSetup(
		func() (*serveInput, error) { return newServeInput(opt.serve, opt.seed) },
		func(in *serveInput) { in.daemon.stop() })
	if err != nil {
		return err
	}
	if opt.trace {
		return traceServe(in, opt, r)
	}
	var passes []*servePass
	start := time.Now()
	for untilDeadline(start, opt.seconds, len(passes), 1) {
		p, err := in.runPass(r, false)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		fmt.Fprintf(r.log, "pass %d: %.3f s\n", len(passes), p.wall)
	}
	cost, err := in.serveCost()
	if err != nil {
		return err
	}
	r.check(cost > 0 && !math.IsInf(cost, 0), "serve cost %v", cost)

	var slotsPerS, arrivalsPerS []float64
	var place, observe [][]float64
	for _, p := range passes {
		place = append(place, p.s.place)
		observe = append(observe, p.s.observe)
		slotsPerS = append(slotsPerS, float64(len(in.slots))/p.wall)
		arrivalsPerS = append(arrivalsPerS, float64(p.s.placed)/p.wall)
	}
	r.set("setup_s", setupS, "s")
	r.set("sim_slots_per_s", quantile(slotsPerS, 0.5), "1/s")
	r.set("arrivals_per_s", quantile(arrivalsPerS, 0.5), "1/s")
	r.set("cost_eur", cost, "EUR")
	r.setPassQuantile("place_p50_ms", place, 0.50)
	r.setPassQuantile("place_p99_ms", place, 0.99)
	r.setPassQuantile("observe_p50_ms", observe, 0.50)
	fmt.Fprintf(r.log, "serve: %d passes, %d slots, %d places, %d departs per pass\n", len(passes), len(in.slots), in.places, in.departs)
	return nil
}

// traceServe alternates untraced and traced replays and reports the serve,
// http and runtime layers plus the tracing overhead.
func traceServe(in *serveInput, opt options, r *report) error {
	var rt runtimeStats
	var plainWall, tracedWall []float64
	all := newSamples()
	counters := map[string]int64{}
	observeVMs := 0
	for _, sl := range in.slots {
		observeVMs += sl.observeVMs
	}
	start := time.Now()
	for untilDeadline(start, opt.seconds, len(tracedWall), 1) {
		before := readMem()
		p, err := in.runPass(r, false)
		if err != nil {
			return err
		}
		rt.add(before, readMem())
		plainWall = append(plainWall, p.wall)

		q, err := in.runPass(r, true)
		if err != nil {
			return err
		}
		tracedWall = append(tracedWall, q.wall)
		all.merge(q.s)
		for k, v := range q.counters {
			counters[k] += v
		}
	}
	n := float64(len(tracedWall))
	r.set("trace.compile_s", in.logS, "s")
	r.set("trace.columns", 1, "count")
	r.setQuantile("serve.handler_place_ms_p50", all.handler["/v1/place"], 0.5)
	r.setQuantile("serve.handler_observe_ms_p50", all.handler["/v1/observe"], 0.5)
	r.setQuantile("serve.handler_depart_ms_p50", all.handler["/v1/depart"], 0.5)
	r.setQuantile("serve.decision_ms_p50", all.decision, 0.5)
	r.setQuantile("serve.decision_ms_p99", all.decision, 0.99)
	r.setQuantile("http.transport_ms_p50", all.transport, 0.5)
	r.set("serve.observe_vms", float64(observeVMs), "count")
	r.set("serve.reconciles", float64(counters["serve_reconciles_total"])/n, "count")
	r.set("serve.overflows", float64(counters["serve_overflows_total"])/n, "count")
	r.set("serve.rejections", float64(counters["serve_rejections_total"])/n, "count")
	r.set("serve.deadlines", float64(counters["serve_deadline_total"])/n, "count")
	r.set("serve.depart_removed_ratio", ratio(float64(all.removed), float64(len(all.depart))), "ratio")
	rt.report(r, len(plainWall))
	r.set("tracing.overhead_s", quantile(tracedWall, 0.5)-quantile(plainWall, 0.5), "s")
	fillLayers(r)
	return nil
}
