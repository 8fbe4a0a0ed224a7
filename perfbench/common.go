package main

// Helpers shared by the workloads: compiling generated sources through the
// scenario layer (with spans), reading port, engine and pool counters
// through the public topology API, and the report identity check.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"ispn/internal/invariant"
	"ispn/internal/scenario"
)

// setupTimes splits one parse → compile → start sequence.
type setupTimes struct{ parse, compile, start float64 }

func (s setupTimes) total() float64 { return s.parse + s.compile + s.start }

// load parses and compiles src and starts the simulation. With timers
// non-nil (the traced run) every port gets a timing decorator before Start.
func load(tr *tracer, id uint64, name, src string, opts scenario.Options, timers *[]*schedTimer) (*scenario.Sim, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	tr.begin("scenario.parse", id)
	f, err := scenario.Parse(name+".ispn", []byte(src))
	tr.end()
	st.parse = time.Since(t0).Seconds()
	if err != nil {
		return nil, st, fmt.Errorf("parse %s: %w", name, err)
	}
	t1 := time.Now()
	tr.begin("scenario.compile", id)
	s, err := scenario.Compile(f, opts)
	tr.end()
	st.compile = time.Since(t1).Seconds()
	if err != nil {
		return nil, st, fmt.Errorf("compile %s: %w", name, err)
	}
	if timers != nil {
		*timers = append(*timers, instrumentPorts(s)...)
	}
	t2 := time.Now()
	tr.begin("scenario.start", id)
	s.Start()
	tr.end()
	st.start = time.Since(t2).Seconds()
	return s, st, nil
}

// setupSampler times a workload's set-up. The timed phase calls catchUp at
// its safe points, so set-ups are sampled all through the run and their
// median sees the host as the timed metrics do, not just its first moment.
type setupSampler struct {
	phase time.Time
	times []float64
}

func newSetupSampler() *setupSampler { return &setupSampler{phase: time.Now()} }

// catchUp runs setup until setupReps set-ups plus one per setupEvery since
// the sampler began have been timed. setup returns one set-up's seconds.
func (s *setupSampler) catchUp(setup func() (float64, error)) error {
	for len(s.times) < setupReps+int(time.Since(s.phase)/setupEvery) {
		d, err := setup()
		if err != nil {
			return err
		}
		s.times = append(s.times, d)
	}
	return nil
}

// window is the phase-clock window that rates and the window-based
// percentiles are medians over, in seconds: long enough that the sparsest
// of those operations (serve-sessions' set-up calls, ~150 a window) leave
// a window's 99th percentile resting on more than its largest sample.
const window = 5.0

// liveRead is the library workloads' live-state read: the per-flow and
// per-link tables the serve control plane returns from /flows and /links.
func liveRead(s *scenario.Sim) {
	_ = s.FlowReports()
	_ = s.LinkSnapshots()
}

// finish builds the final report text.
func finish(tr *tracer, id uint64, s *scenario.Sim) string {
	tr.begin("scenario.report", id)
	defer tr.end()
	return s.Finish().Format()
}

// reference is what a validation pass hands the timed phase for the
// layer metrics that must not depend on host speed: the exact topology
// counters of a fixed-size run and the oracle's verdict.
type reference struct {
	topo       portTotals
	deliveries int64
	violations int64
}

// oracle records a checked run's verdict. Deliveries checked count as
// attempted operations. Every violation is printed and counted in
// invariant.violations; those known accepts (nil: none) are the workload's
// recorded finding, and every other one counts as failed.
func (r *reference) oracle(o *outcome, name string, rep *scenario.Report, known func(invariant.Violation) bool) error {
	if rep.Check == nil {
		return fmt.Errorf("%s: checked run has no invariants section", name)
	}
	r.deliveries = rep.Check.Deliveries
	for _, v := range rep.Check.Violations {
		r.violations += v.Count
		if known != nil && known(v) {
			fmt.Printf("oracle %s: known finding: %s\n", name, v)
			continue
		}
		fmt.Printf("oracle %s: %s\n", name, v)
		o.failed += v.Count
	}
	o.attempted += r.deliveries
	return nil
}

// layers adds the topology and invariant metrics.
func (r *reference) layers(L map[string]float64) {
	L["topology.pkt_hops"] = float64(r.topo.hops)
	L["topology.drops"] = float64(r.topo.drops)
	L["topology.util_max"] = r.topo.utilMax
	L["invariant.deliveries_checked"] = float64(r.deliveries)
	L["invariant.violations"] = float64(r.violations)
}

// portTotals sums the topology counters of a scenario's ports.
type portTotals struct {
	hops, drops int64
	utilMax     float64
}

func ports(s *scenario.Sim) portTotals {
	var t portTotals
	now := s.Now()
	for _, pt := range s.Net.Topology().Ports() {
		t.hops += pt.TxPackets()
		t.drops += pt.Counter().Dropped
		if now > 0 {
			t.utilMax = max(t.utilMax, pt.TotalUtilization(now))
		}
	}
	return t
}

// engineTotals reads the events processed by the control engine and every
// shard engine, the per-shard split, and the packets pending right now.
type engineTotals struct {
	events   uint64
	perShard []uint64
	pending  int
}

func engines(s *scenario.Sim) engineTotals {
	eng := s.Net.Engine()
	t := engineTotals{events: eng.Processed(), pending: eng.Pending()}
	for _, sh := range s.Net.Topology().Shards() {
		e := sh.Engine()
		t.events += e.Processed()
		t.perShard = append(t.perShard, e.Processed())
		t.pending += e.Pending()
	}
	return t
}

// poolTotals sums Get and fresh-allocation counts over the network pool and
// every shard pool.
func poolTotals(s *scenario.Sim) (gets, news int64) {
	g, _, n := s.Net.Pool().Stats()
	gets, news = g, n
	for _, sh := range s.Net.Topology().Shards() {
		g, _, n := sh.Pool().Stats()
		gets += g
		news += n
	}
	return gets, news
}

// digest is the short hash printed for a report.
func digest(report string) string {
	sum := sha256.Sum256([]byte(report))
	return fmt.Sprintf("%x", sum[:8])
}

// sameReport is the identity check: nil when got is byte-identical to want,
// otherwise an error naming the first line that differs.
func sameReport(what, want, got string) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Errorf("%s: report differs at line %d: want %q, got %q", what, i+1, w, g)
		}
	}
	return fmt.Errorf("%s: reports differ", what)
}
