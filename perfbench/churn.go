package main

// The call-churn workload: library-driven Section 9 call churn on a
// generated Random mesh with admission on and an LRU route cache. The
// benchmark steps the simulation in 10 ms quanta and, at each boundary,
// releases the calls whose hold has ended, applies the hot-link fail/restore
// schedule, and places the calls that have arrived: LookupRoute, then
// RequestPredictedMember (or RequestGuaranteed for a share of calls).
// Light background traffic gives the measurement-based test a real load.

import (
	"container/heap"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"ispn/internal/admission"
	"ispn/internal/core"
	"ispn/internal/scenario"
)

// Call-churn sizing. Calls arrive at churnRate per simulated second and hold
// for churnHold on average, so the steady state holds about churnRate ·
// churnHold · (1 − refusal ratio) members.
const (
	churnNodes     = 16
	churnRate      = 5000.0  // calls per simulated second
	churnHold      = 26.0    // mean hold, simulated seconds
	churnWarm      = 80.0    // untimed warm-up, simulated seconds
	churnQuantum   = 0.01    // simulated seconds between call boundaries
	churnGuarShare = 0.05    // share of calls asking for guaranteed service
	churnMemberR   = 10e3    // per-call token rate, bits/s
	churnMemberB   = 8e3     // per-call bucket depth, bits
	churnFailEvery = 10.0    // hot link fails every this many simulated seconds
	churnFailFor   = 2.0     // and stays down this long
	churnZipf      = 1.0     // destination skew
	churnValidate  = 8.0     // simulated seconds of the validation runs
	churnGuarID0   = 1 << 20 // first caller-chosen guaranteed flow id
	churnPerSecond = 100     // call boundaries per simulated second
	// churnNetSeed is the run seed of every invocation's network: it fixes
	// the mesh's chords and the background packet timing. The --seed
	// argument draws the call schedule and the background rates. With a
	// mesh drawn per seed, one seed ran ~15% slower than another, run
	// after run.
	churnNetSeed = 1992
	// The live-state reads: churnReadReps in each of the timed churn's
	// first churnReads simulated seconds, spread over the second so that
	// one stall of the host (or one collection) rarely meets two of them.
	// A read's cost grows with the simulated time behind it, so they are
	// taken at the same simulated times in every run, whatever the host's
	// speed; reads of the same state would find the previous read's
	// results cached.
	churnReads    = 100
	churnReadReps = 5
)

// genChurn renders the call-churn network: a 16-switch Random mesh (a ring
// plus chords drawn from churnNetSeed, 10 Mbit/s links), admission control
// on, an LRU route cache, and background predicted traffic along every
// two-hop ring segment at seeded rates.
func genChurn(seed int64, horizon float64) string {
	var b strings.Builder
	b.WriteString("# Section 9 call churn on a random mesh.\n")
	b.WriteString("net :: Net(rate 10Mbps, classes 2, targets [32ms, 320ms], buffer 200, maxpkt 4000, admission on)\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %.0fs)\n", churnNetSeed, horizon)
	fmt.Fprintf(&b, "mesh :: Random(nodes %d, degree 3, delay 1ms)\n", churnNodes)
	b.WriteString("cache :: RouteCache(scheme lru, size 64)\n")
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= churnNodes; i++ {
		path := []string{churnNode(i), churnNode(i%churnNodes + 1), churnNode((i+1)%churnNodes + 1)}
		pps := math.Round(300 * (0.95 + 0.1*rng.Float64()))
		fmt.Fprintf(&b, "bg%d :: Predicted(rate 2Mbps, bucket 50kbit, delay 2s, class 0, path %s)\n", i, arrowPath(path))
		fmt.Fprintf(&b, "bs%d :: Poisson(rate %gpps, size 4000bit)\nbs%d -> bg%d\n", i, pps, i, i)
	}
	return b.String()
}

func churnNode(i int) string { return fmt.Sprintf("mesh.n%d", i) }

// call is one generated call.
type call struct {
	at         float64
	src, dst   string
	guaranteed bool
	class      uint8
	hold       float64
}

// callGen draws the seeded call schedule: Poisson arrivals, a uniform
// source, a Zipf destination over a seeded ranking of the switches, and an
// exponential hold.
type callGen struct {
	rng  *rand.Rand
	t    float64
	rank []int     // destination popularity order
	cum  []float64 // Zipf cumulative weights over rank
}

func newCallGen(seed int64) *callGen {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca11))
	g := &callGen{rng: rng, rank: rng.Perm(churnNodes)}
	sum := 0.0
	for k := 1; k <= churnNodes; k++ {
		sum += 1 / math.Pow(float64(k), churnZipf)
		g.cum = append(g.cum, sum)
	}
	return g
}

func (g *callGen) next() call {
	g.t += g.rng.ExpFloat64() / churnRate
	c := call{at: g.t}
	src := g.rng.Intn(churnNodes)
	dst := src
	for dst == src {
		u := g.rng.Float64() * g.cum[len(g.cum)-1]
		k := 0
		for g.cum[k] < u {
			k++
		}
		dst = g.rank[k]
	}
	c.src, c.dst = churnNode(src+1), churnNode(dst+1)
	c.guaranteed = g.rng.Float64() < churnGuarShare
	c.class = uint8(g.rng.Intn(2))
	c.hold = g.rng.ExpFloat64() * churnHold
	return c
}

// hotDest is the most popular destination.
func (g *callGen) hotDest() string { return churnNode(g.rank[0] + 1) }

// live is an admitted call waiting for its departure.
type live struct {
	until  float64
	member core.Member
	gid    uint32 // guaranteed flow id, 0 for a member
}

type departures []live

func (d departures) Len() int           { return len(d) }
func (d departures) Less(i, j int) bool { return d[i].until < d[j].until }
func (d departures) Swap(i, j int)      { d[i], d[j] = d[j], d[i] }
func (d *departures) Push(x any)        { *d = append(*d, x.(live)) }
func (d *departures) Pop() any {
	old := *d
	x := old[len(old)-1]
	*d = old[:len(old)-1]
	return x
}

// churnRun drives one simulation through the call schedule.
type churnRun struct {
	s        *scenario.Sim
	gen      *callGen
	pending  call
	deps     departures
	nextGID  uint32
	hot      [2]string
	down     bool
	nextFail float64
	k        int64 // call boundaries served

	tr     *tracer
	timing bool      // record latencies
	phase  time.Time // start of the timed phase
	setup  series    // LookupRoute + Request*

	calls, admitted, refused, failures, releases int64
	decisions                                    hash.Hash64 // over the admit/refuse/fail sequence
	errs                                         []string
}

func newChurnRun(s *scenario.Sim, seed int64) (*churnRun, error) {
	r := &churnRun{s: s, gen: newCallGen(seed), nextGID: churnGuarID0, nextFail: churnFailEvery / 2, decisions: fnv.New64a()}
	r.pending = r.gen.next()
	// The hot link is the last hop of the route into the most popular
	// destination from the switch opposite it on the ring.
	dst := r.gen.hotDest()
	var from string
	for i := 1; i <= churnNodes; i++ {
		if churnNode(i) == dst {
			from = churnNode((i+churnNodes/2-1)%churnNodes + 1)
		}
	}
	path := s.Net.LookupRoute(from, dst)
	if len(path) < 2 {
		return nil, fmt.Errorf("call-churn: no route %s -> %s", from, dst)
	}
	r.hot = [2]string{path[len(path)-2], path[len(path)-1]}
	return r, nil
}

// advance steps the simulation to t, serving every call boundary on the way.
// Boundaries are counted, not accumulated, so they never drift.
func (r *churnRun) advance(t float64) {
	for float64(r.k+1)*churnQuantum <= t+1e-9 {
		r.step()
	}
}

// step runs one quantum and serves its boundary.
func (r *churnRun) step() {
	r.k++
	r.tr.begin("core.run", 0)
	r.s.Net.Run(float64(r.k)*churnQuantum - r.s.Now())
	r.tr.end()
	r.boundary()
}

func (r *churnRun) boundary() {
	now := r.s.Now()
	for len(r.deps) > 0 && r.deps[0].until <= now {
		d := heap.Pop(&r.deps).(live)
		r.release(d)
	}
	if now >= r.nextFail {
		op, wait := r.s.Net.FailLink, churnFailFor
		if r.down {
			op, wait = r.s.Net.RestoreLink, churnFailEvery-churnFailFor
		}
		for _, err := range []error{op(r.hot[0], r.hot[1]), op(r.hot[1], r.hot[0])} {
			if err != nil {
				r.fail(err)
			}
		}
		r.nextFail = now + wait
		r.down = !r.down
	}
	for r.pending.at <= now {
		r.place(r.pending)
		r.pending = r.gen.next()
	}
}

// place issues one call: LookupRoute, then the service request.
func (r *churnRun) place(c call) {
	r.calls++
	id := uint64(r.calls)
	net := r.s.Net
	var t0 time.Time
	if r.timing {
		t0 = time.Now()
	}
	r.tr.begin("call", id)
	r.tr.begin("routing.lookup", id)
	path := net.LookupRoute(c.src, c.dst)
	r.tr.end()
	var err error
	var d live
	if path == nil {
		err = errNoRoute
	} else if c.guaranteed {
		r.tr.begin("admission.request", id)
		_, err = net.RequestGuaranteed(r.nextGID, path, core.GuaranteedSpec{ClockRate: churnMemberR, BucketBits: churnMemberB})
		r.tr.end()
		d.gid = r.nextGID
		r.nextGID++
	} else {
		r.tr.begin("admission.request", id)
		d.member, err = net.RequestPredictedMember(path, c.class, core.PredictedSpec{
			TokenRate: churnMemberR, BucketBits: churnMemberB, Delay: 5, Loss: 0.01,
		})
		r.tr.end()
	}
	r.tr.end()
	if r.timing {
		r.setup.since(r.phase, t0)
	}
	switch {
	case err == nil:
		r.admitted++
		r.decisions.Write([]byte{1})
		d.until = c.at + c.hold
		heap.Push(&r.deps, d)
	case refusal(err):
		r.refused++
		r.decisions.Write([]byte{0})
	default:
		r.decisions.Write([]byte{2})
		r.fail(err)
	}
}

// fail records an operation that went wrong.
func (r *churnRun) fail(err error) {
	r.failures++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

var errNoRoute = errors.New("no route")

// refusal reports whether err is a correct refusal — the measurement-based
// test, the guaranteed reservation quota, or an unreachable destination —
// rather than a failure. The quota error is untyped, so it is matched by its
// "cannot reserve R bits/s (reserved …" text; the configuration error of a
// pipeline that cannot reserve a clock rate at all stays a failure.
func refusal(err error) bool {
	var rej *admission.ErrRejected
	return errors.As(err, &rej) || errors.Is(err, errNoRoute) || strings.Contains(err.Error(), " bits/s (reserved ")
}

func (r *churnRun) release(d live) {
	r.tr.begin("admission.release", uint64(d.gid))
	if d.gid != 0 {
		r.s.Net.Release(d.gid)
	} else {
		d.member.Release()
	}
	r.tr.end()
	r.releases++
}

// members counts live members as the core sees them, and carriers.
func (r *churnRun) members() (members, carriers int) {
	for _, a := range r.s.Net.Aggregates() {
		members += a.Members()
		carriers++
	}
	return members, carriers
}

// checkLive compares the benchmark's own count of live predicted calls with
// the core's aggregates.
func (r *churnRun) checkLive(o *outcome) {
	want := 0
	for _, d := range r.deps {
		if d.gid == 0 {
			want++
		}
	}
	if got, _ := r.members(); got != want {
		o.problemf("call-churn: core holds %d live members, the benchmark admitted %d still live", got, want)
	}
	if r.failures > 0 {
		o.problemf("call-churn: %d calls failed: %s", r.failures, strings.Join(r.errs, "; "))
	}
}

// validateChurn runs a fixed-size churn without and with the oracle; both
// must make the same admit/refuse decisions. The reference report is the
// unchecked run's.
func validateChurn(o *outcome, seed int64) (*reference, error) {
	v := &reference{}
	src := genChurn(seed, churnValidate)
	var digests [2]uint64
	for i, check := range []bool{false, true} {
		s, _, err := load(nil, 0, "call-churn", src, scenario.Options{Check: check}, nil)
		if err != nil {
			return nil, err
		}
		r, err := newChurnRun(s, seed)
		if err != nil {
			return nil, err
		}
		r.advance(churnValidate)
		r.checkLive(o)
		o.attempted += r.calls
		rep := s.Finish()
		digests[i] = r.decisions.Sum64()
		if check {
			if err := v.oracle(o, "call-churn", rep, nil); err != nil {
				return nil, err
			}
			continue
		}
		v.topo = ports(s)
		o.digests["call-churn"] = digest(rep.Format())
		o.digests["call-churn decisions"] = fmt.Sprintf("%016x (%d calls, %d admitted, %d refused)", digests[i], r.calls, r.admitted, r.refused)
	}
	if digests[0] != digests[1] {
		o.problemf("call-churn: admit/refuse decisions differ with the oracle attached (%016x vs %016x)", digests[0], digests[1])
	}
	return v, nil
}

func runChurn(o *outcome, cfg config) error {
	v, err := validateChurn(o, cfg.seed)
	if err != nil {
		return err
	}
	return cfg.phases(o, func(p *outcome, tr *tracer) error {
		return timedChurn(p, cfg, v, tr)
	})
}

func timedChurn(o *outcome, cfg config, v *reference, tr *tracer) error {
	// The timed run's horizon is never reached: it stops on the budget.
	src := genChurn(cfg.seed, 1000000)
	var parse, compile, start []float64
	var s *scenario.Sim
	setups := newSetupSampler()
	setup := func() (float64, error) {
		si, st, err := load(tr, uint64(len(setups.times)), "call-churn", src, scenario.Options{}, nil)
		if s == nil {
			s = si
		}
		parse, compile, start = append(parse, st.parse), append(compile, st.compile), append(start, st.start)
		return st.total(), err
	}
	if err := setups.catchUp(setup); err != nil {
		return err
	}
	r, err := newChurnRun(s, cfg.seed)
	if err != nil {
		return err
	}
	// Warm-up, untimed and untraced: fill the network to its steady
	// occupancy.
	r.advance(churnWarm)
	// The heap is read here, at a fixed simulated time with the network at
	// its steady occupancy. At the end of the timed run it would grow with
	// how far a faster program got.
	members, carriers := r.members()
	heapMB := liveHeapMB()
	warm := struct{ calls, refused, hops, releases int64 }{r.calls, r.refused, ports(s).hops, r.releases}
	lookups0 := s.Net.RouteCache().Stats()

	r.tr, r.timing = tr, true
	events0 := engines(s).events
	gets0, news0 := poolTotals(s)
	// A session is one simulated second of churn: the host time it takes.
	// The calls, hops and sessions run on the churn's own clock: host time
	// less the time set aside for live reads and set-up samples.
	var reads profile
	var calls, hops series
	var sessions []float64
	pendingMax := 0
	r.phase = time.Now()
	setups.phase = r.phase // the warm-up owes no set-up samples
	deadline := r.phase.Add(cfg.budget)
	var aside time.Duration
	clock := func() float64 { return (time.Since(r.phase) - aside).Seconds() }
	prevCalls, prevHops := r.calls, ports(s).hops
	secondStart := 0.0
	for n := 1; time.Now().Before(deadline); n++ {
		r.step()
		if n%churnPerSecond == 0 {
			sessions = append(sessions, clock()-secondStart)
			ts := time.Now()
			if err := setups.catchUp(setup); err != nil {
				return err
			}
			aside += time.Since(ts)
			secondStart = clock()
		}
		t := clock()
		h := ports(s).hops
		calls.add(t, float64(r.calls-prevCalls))
		hops.add(t, float64(h-prevHops))
		prevCalls, prevHops = r.calls, h
		if k, i := n/churnPerSecond, n%churnPerSecond; k < churnReads && i%(churnPerSecond/churnReadReps) == 1 {
			tq := time.Now()
			tr.begin("scenario.live", 0)
			liveRead(s)
			tr.end()
			d := time.Since(tq)
			aside += d
			reads.add(k, d.Seconds())
		}
		pendingMax = max(pendingMax, engines(s).pending)
	}
	r.checkLive(o)
	o.attempted += r.calls - warm.calls + r.releases - warm.releases + int64(reads.n())

	timed := r.calls - warm.calls
	o.e2e["setup_s"] = median(setups.times)
	o.e2e["pkt_hops_per_s"] = hops.rate(window)
	o.e2e["calls_per_s"] = calls.rate(window)
	o.e2e["call_setup_p50_us"] = r.setup.quantile(window, 0.5) * 1e6
	o.e2e["call_setup_p99_us"] = r.setup.quantile(window, 0.99) * 1e6
	o.e2e["req_p50_ms"] = reads.quantile(0.5) * 1e3
	o.e2e["req_p99_ms"] = reads.quantile(0.99) * 1e3
	o.e2e["session_p50_s"] = median(sessions)
	o.e2e["heap_live_mb"] = heapMB

	L := o.layers
	L["scenario.parse_s"] = median(parse)
	L["scenario.compile_s"] = median(compile)
	L["scenario.start_s"] = median(start)
	L["core.carriers"] = float64(carriers)
	if members > 0 {
		L["core.bytes_per_member"] = heapMB * (1 << 20) / float64(members)
	}
	runS := float64(tr.stat("core.run").total) / 1e9
	events := engines(s).events - events0
	L["core.run_s"] = runS
	if n := ports(s).hops - warm.hops; n > 0 {
		L["core.ns_per_hop"] = runS * 1e9 / float64(n)
	}
	L["sim.events"] = float64(events)
	if events > 0 {
		L["sim.ns_per_event"] = runS * 1e9 / float64(events)
	}
	L["sim.pending_max"] = float64(pendingMax)
	gets, news := poolTotals(s)
	L["packet.pool_gets"] = float64(gets - gets0)
	L["packet.pool_news"] = float64(news - news0)
	if gets > gets0 {
		L["packet.reuse_ratio"] = 1 - float64(news-news0)/float64(gets-gets0)
	}
	v.layers(L)
	L["admission.request_ns_p50"] = tr.pct("admission.request", 0.5)
	L["admission.request_ns_p99"] = tr.pct("admission.request", 0.99)
	L["admission.release_ns_p50"] = tr.pct("admission.release", 0.5)
	if timed > 0 {
		L["admission.refusal_ratio"] = float64(r.refused-warm.refused) / float64(timed)
	}
	L["routing.lookup_ns_p50"] = tr.pct("routing.lookup", 0.5)
	L["routing.lookup_ns_p99"] = tr.pct("routing.lookup", 0.99)
	st := s.Net.RouteCache().Stats()
	if n := st.Hits + st.Misses - lookups0.Hits - lookups0.Misses; n > 0 {
		L["routing.cache_hit_ratio"] = float64(st.Hits-lookups0.Hits) / float64(n)
	}
	L["routing.invalidations"] = float64(st.Invalidations - lookups0.Invalidations)
	live, _ := r.members()
	fmt.Printf("call-churn: %d calls timed, %d live members after warm-up on %d carriers, %d at the end, refusal ratio %.3f\n",
		timed, members, carriers, live, L["admission.refusal_ratio"])
	return nil
}
