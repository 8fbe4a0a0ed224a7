package main

// The serve-sessions workload: a closed loop of one HTTP client over
// loopback against an in-process serve.Manager handler. The client repeats
// one episode, alternating between two generated sources: create a paused session from inline generated source, inject
// an `at` block (a flow arrives and leaves, a link fails and comes back),
// resume, poll status and flows until the free run is done, fetch the
// report, delete the session. Every served report must equal the batch run
// of the same source with the block appended.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"ispn/internal/scenario"
	"ispn/internal/serve"
)

const (
	serveVariants = 2    // distinct sources per invocation; episodes alternate
	serveHorizon  = 30.0 // simulated seconds per session
)

// serveInput is one generated session: its inline source and the event
// block the client injects.
type serveInput struct {
	name, source, events string
}

// genServe renders variant v: a five-switch parking lot carrying guaranteed,
// predicted, datagram and TCP traffic with admission on, and an event block
// whose times the seed picks.
func genServe(seed int64, v int) serveInput {
	rng := rand.New(rand.NewSource(seed*serveVariants + int64(v)))
	pps := func(base float64) float64 { return math.Round(base * (0.8 + 0.4*rng.Float64())) }
	var b strings.Builder
	b.WriteString("# A served parking lot.\n")
	b.WriteString("net :: Net(rate 2Mbps, classes 2, targets [32ms, 320ms], buffer 200, admission on)\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs)\n", seed*serveVariants+int64(v), serveHorizon)
	b.WriteString("lot :: ParkingLot(hops 4, delay 1ms)\n")
	b.WriteString("g :: Guaranteed(rate 400kbps, bucket 50kbit, path lot.s1 -> lot.s2 -> lot.s3 -> lot.s4 -> lot.s5)\n")
	fmt.Fprintf(&b, "gs :: Markov(peak %gpps, avg %gpps, burst 5, size 1000bit)\ngs -> g\n", 2*pps(150), pps(150))
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&b, "p%d :: Predicted(rate 300kbps, bucket 20kbit, delay 2s, class %d, path lot.s%d -> lot.s%d)\n", i, i%2, i, i+1)
		fmt.Fprintf(&b, "ps%d :: Markov(peak %gpps, avg %gpps, burst 5, size 1000bit)\nps%d -> p%d\n", i, 2*pps(200), pps(200), i, i)
	}
	b.WriteString("d :: Datagram(path lot.s1 -> lot.s2 -> lot.s3)\n")
	fmt.Fprintf(&b, "ds :: Poisson(rate %gpps, size 1000bit)\nds -> d\n", pps(400))
	b.WriteString("web :: TCP(path lot.s3 -> lot.s4 -> lot.s5)\n")

	t1 := math.Round(serveHorizon * (0.1 + 0.2*rng.Float64()))
	t2 := t1 + math.Round(serveHorizon*0.2)
	t3 := math.Round(serveHorizon * (0.5 + 0.1*rng.Float64()))
	t4 := t3 + math.Round(serveHorizon*0.15)
	var e strings.Builder
	fmt.Fprintf(&e, "at %gs {\n  probe :: Predicted(rate 200kbps, bucket 20kbit, delay 2s, class 1, path lot.s2 -> lot.s3 -> lot.s4)\n", t1)
	fmt.Fprintf(&e, "  pp :: Poisson(rate %gpps, size 1000bit)\n  pp -> probe\n}\n", pps(150))
	fmt.Fprintf(&e, "at %gs { remove probe }\n", t2)
	fmt.Fprintf(&e, "at %gs { fail lot.s3 -> lot.s4 }\n", t3)
	fmt.Fprintf(&e, "at %gs { restore lot.s3 -> lot.s4 }\n", t4)
	return serveInput{name: fmt.Sprintf("served%d", v), source: b.String(), events: e.String()}
}

// batchRef is the batch run of one variant.
type batchRef struct {
	report string
	hops   int64
}

type serveValidation struct {
	reference
	refs []batchRef
}

// validateServe runs every variant as a batch scenario (source with the
// event block appended) and variant 0 once more under the oracle.
func validateServe(o *outcome, seed int64) (*serveValidation, error) {
	v := &serveValidation{}
	for k := 0; k < serveVariants; k++ {
		in := genServe(seed, k)
		s, _, err := load(nil, 0, in.name, in.source+in.events, scenario.Options{}, nil)
		if err != nil {
			return nil, err
		}
		text := s.Finish().Format()
		v.refs = append(v.refs, batchRef{report: text, hops: ports(s).hops})
		o.digests[fmt.Sprintf("serve-sessions %s", in.name)] = digest(text)
		if k == 0 {
			v.topo = ports(s)
		}
	}
	in := genServe(seed, 0)
	s, _, err := load(nil, 0, in.name, in.source+in.events, scenario.Options{Check: true}, nil)
	if err != nil {
		return nil, err
	}
	if err := v.oracle(o, "serve-sessions", s.Finish(), nil); err != nil {
		return nil, err
	}
	return v, nil
}

// server is an in-process control plane on a loopback listener.
type server struct {
	m    *serve.Manager
	srv  *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	m := serve.NewManager(serve.Config{})
	s := &server{m: m, srv: &http.Server{Handler: m.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and every session down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout only means a handler outlived us
	<-s.done
	s.m.Close()
}

// client issues requests and records their latencies.
type client struct {
	hc     *http.Client
	base   string
	tr     *tracer
	phase  time.Time          // start of the timed phase
	byName map[string]*series // latency per endpoint
	// live profiles the live-state reads per source: position j is an
	// episode's j-th status or flows poll.
	live   map[string]*profile
	last   float64 // latency of the last request, in seconds
	errors int64
	reqs   int64
}

func newClient(base string, hc *http.Client, tr *tracer, phase time.Time) *client {
	return &client{hc: hc, base: base, tr: tr, phase: phase, byName: map[string]*series{}, live: map[string]*profile{}}
}

// do sends one request and decodes a JSON reply into out (or returns the
// body text when out is nil). A non-2xx status is an error.
func (c *client) do(endpoint, method, path string, body []byte, id uint64, out any) (string, error) {
	c.reqs++
	c.tr.begin("serve."+endpoint, id)
	defer c.tr.end()
	l := c.byName[endpoint]
	if l == nil {
		l = &series{}
		c.byName[endpoint] = l
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.errors++
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.errors++
		return "", fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.last = l.since(c.phase, t0)
	if err != nil {
		c.errors++
		return "", fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.errors++
		return "", fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.errors++
			return "", fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return string(data), nil
}

type createReq struct {
	Source string `json:"source"`
	Name   string `json:"name"`
	Paused bool   `json:"paused"`
}

type statusReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// create posts a paused session and returns its id.
func (c *client) create(in serveInput, id uint64) (string, error) {
	body, err := json.Marshal(createReq{Source: in.source, Name: in.name, Paused: true})
	if err != nil {
		return "", err
	}
	var st statusReply
	if _, err := c.do("create", "POST", "/sessions", body, id, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// episode runs one session end to end and returns its report.
func (c *client) episode(in serveInput, id uint64) (string, error) {
	c.tr.begin("session", id)
	defer c.tr.end()
	sid, err := c.create(in, id)
	if err != nil {
		return "", err
	}
	p := "/sessions/" + sid
	if _, err := c.do("events", "POST", p+"/events", []byte(in.events), id, nil); err != nil {
		return "", err
	}
	if _, err := c.do("action", "POST", p, []byte(`{"action":"resume"}`), id, nil); err != nil {
		return "", err
	}
	live := c.live[in.name]
	if live == nil {
		live = &profile{}
		c.live[in.name] = live
	}
	for j := 0; ; j += 2 {
		var st statusReply
		if _, err := c.do("status", "GET", p, nil, id, &st); err != nil {
			return "", err
		}
		live.add(j, c.last)
		if st.Status == "done" {
			break
		}
		if _, err := c.do("flows", "GET", p+"/flows", nil, id, nil); err != nil {
			return "", err
		}
		live.add(j+1, c.last)
	}
	report, err := c.do("report", "GET", p+"/report", nil, id, nil)
	if err != nil {
		return "", err
	}
	if _, err := c.do("delete", "DELETE", p, nil, id, nil); err != nil {
		return "", err
	}
	return report, nil
}

func runServe(o *outcome, cfg config) error {
	v, err := validateServe(o, cfg.seed)
	if err != nil {
		return err
	}
	return cfg.phases(o, func(p *outcome, tr *tracer) error {
		return timedServe(p, cfg, v, tr)
	})
}

func timedServe(o *outcome, cfg config, v *serveValidation, tr *tracer) error {
	inputs := make([]serveInput, serveVariants)
	for k := range inputs {
		inputs[k] = genServe(cfg.seed, k)
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()

	// Set-up: a fresh server, over a fresh connection, until it has
	// answered its first session.
	setups := newSetupSampler()
	setup := func() (float64, error) {
		t0 := time.Now()
		srv, err := startServer()
		if err != nil {
			return 0, err
		}
		shc := &http.Client{Transport: &http.Transport{}}
		defer shc.CloseIdleConnections()
		defer srv.stop()
		c := newClient(srv.url, shc, tr, t0)
		i := uint64(len(setups.times))
		sid, err := c.create(inputs[0], i)
		d := time.Since(t0).Seconds()
		if err == nil {
			_, err = c.do("delete", "DELETE", "/sessions/"+sid, nil, i, nil)
		}
		return d, err
	}
	if err := setups.catchUp(setup); err != nil {
		return err
	}

	srv, err := startServer()
	if err != nil {
		return err
	}
	defer srv.stop()
	// The closed loop has one client: its session actor and the HTTP
	// client and handler fill the two CPUs. With a second client both CPUs
	// step sessions, and a live read waits out the Go scheduler's 10 ms
	// preemption tick instead of a step boundary.
	phase := time.Now()
	deadline := phase.Add(cfg.budget)
	c := newClient(srv.url, hc, tr, phase)
	var sessions []float64
	var hops series // packets each finished session moved, at its end
	for n := 1; time.Now().Before(deadline); n++ {
		variant := n % serveVariants
		ts := time.Now()
		report, err := c.episode(inputs[variant], uint64(n))
		if err != nil {
			o.problemf("%v", err)
			break
		}
		sessions = append(sessions, time.Since(ts).Seconds())
		hops.add(time.Since(phase).Seconds(), float64(v.refs[variant].hops))
		if err := sameReport(fmt.Sprintf("serve-sessions: session %d", n), v.refs[variant].report, report); err != nil {
			o.problemf("%v", err)
			break
		}
		if err := setups.catchUp(setup); err != nil {
			return err
		}
	}
	elapsed := time.Since(phase).Seconds()

	o.attempted += c.reqs
	o.failed += c.errors
	get := func(name string) *series {
		if l := c.byName[name]; l != nil {
			return l
		}
		return &series{}
	}
	// Calls are the requests that set a session's service up; live-state
	// requests are the polls of status and per-flow statistics, profiled by
	// their position in the episode of each source.
	var calls series
	for _, e := range []string{"create", "events", "action"} {
		calls.xs = append(calls.xs, get(e).xs...)
	}
	var liveMeds []float64
	liveN := 0
	for _, in := range inputs {
		if p := c.live[in.name]; p != nil {
			liveMeds = append(liveMeds, p.medians()...)
			liveN += p.n()
		}
	}

	o.e2e["setup_s"] = median(setups.times)
	o.e2e["pkt_hops_per_s"] = hops.rate(window)
	o.e2e["calls_per_s"] = calls.countRate(window)
	o.e2e["call_setup_p50_us"] = calls.quantile(window, 0.5) * 1e6
	o.e2e["call_setup_p99_us"] = calls.quantile(window, 0.99) * 1e6
	o.e2e["req_p50_ms"] = median(liveMeds) * 1e3
	o.e2e["req_p99_ms"] = quantile(liveMeds, 0.99) * 1e3
	o.e2e["session_p50_s"] = median(sessions)
	fmt.Printf("serve-sessions: %d sessions, %d requests (%d live-state) in %.1fs\n", len(sessions), c.reqs, liveN, elapsed)

	L := o.layers
	for _, e := range []string{"create", "events", "status", "flows", "report"} {
		L["serve."+e+"_ms"] = quantile(get(e).values(), 0.5) * 1e3
	}
	L["serve.http_errors"] = float64(c.errors)
	v.layers(L)

	// The heap is read with one paused, compiled session per variant on the
	// server, a fixed state; the closed loop itself ends between episodes,
	// and the client's latency records, which grow with the run, are no
	// longer reachable.
	final := newClient(srv.url, hc, nil, phase)
	var ids []string
	for k := 0; k < serveVariants; k++ {
		id, err := final.create(inputs[k], 0)
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	o.e2e["heap_live_mb"] = liveHeapMB()
	runtime.KeepAlive(srv)
	for _, id := range ids {
		if _, err := final.do("delete", "DELETE", "/sessions/"+id, nil, 0, nil); err != nil {
			return err
		}
	}
	return nil
}
