package main

// The two data-plane workloads, paper-table3 and mesh-2shard. Their timed
// phase runs back-to-back sessions of one generated scenario: parse,
// compile, start, then Network.Run in fixed simulated steps with a periodic
// live-state read, then the final report. Every session of one invocation
// compiles the same source, so every report must equal the validation
// pass's reference byte for byte.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ispn/internal/invariant"
	"ispn/internal/scenario"
)

// dataPlane describes one data-plane workload.
type dataPlane struct {
	name    string
	horizon float64 // simulated seconds per session
	// quantum is the simulated seconds per timed step: steps of several
	// milliseconds of host time, so a step's tail latency is not one
	// garbage collection or one stall of the host.
	quantum float64
	// readEvery is how many steps pass between live-state reads.
	readEvery int
	shards    int // engines in the timed run (0 = sequential)
	source    func(seed int64, horizon float64, shards int) string
	// check returns the workload's own failed checks on the one-shot
	// reference report (nil: none).
	check func(ref *scenario.Report) []string
	// known returns, for the oracle-checked run s, which violations are the
	// workload's recorded finding rather than failures (nil: none).
	known func(s *scenario.Sim) func(invariant.Violation) bool
}

var table3Workload = &dataPlane{
	name:      "paper-table3",
	horizon:   600, // the paper's ten simulated minutes
	quantum:   5,
	readEvery: 1,
	source:    func(seed int64, horizon float64, _ int) string { return genTable3(seed, horizon) },
	check:     table3Orderings,
	known:     table3KnownFinding,
}

var meshWorkload = &dataPlane{
	name:      "mesh-2shard",
	horizon:   20,
	quantum:   0.5,
	readEvery: 1,
	shards:    2,
	source:    genMesh,
}

// dpValidation is what the validation pass hands the timed phase.
type dpValidation struct {
	reference
	ref      string  // reference report text
	seqRunS  float64 // sequential host seconds per simulated second
	sessionS float64 // one-shot session wall time (fallback session metric)
}

// validateDP runs the validation pass: the one-shot reference (on the
// sequential engine), a segmented or sharded run that must match it byte
// for byte, the workload's own checks, and an oracle-checked run.
func (w *dataPlane) validateDP(o *outcome, seed int64) (*dpValidation, error) {
	v := &dpValidation{}
	src := w.source(seed, w.horizon, 1)
	t0 := time.Now()
	s, _, err := load(nil, 0, w.name, src, scenario.Options{}, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	s.StepTo(w.horizon)
	v.seqRunS = time.Since(t1).Seconds() / w.horizon
	rep := s.Finish()
	v.ref = rep.Format()
	v.sessionS = time.Since(t0).Seconds()
	v.topo = ports(s)
	o.digests[w.name] = digest(v.ref)

	// The second run: sharded for the mesh, segmented at seeded uneven
	// boundaries for the sequential workload.
	if w.shards > 1 {
		s2, _, err := load(nil, 0, w.name, w.source(seed, w.horizon, w.shards), scenario.Options{}, nil)
		if err != nil {
			return nil, err
		}
		if err := sameReport(fmt.Sprintf("%s: %d-shard vs sequential", w.name, w.shards), v.ref, s2.Finish().Format()); err != nil {
			o.problemf("%v", err)
		}
	} else {
		s2, _, err := load(nil, 0, w.name, src, scenario.Options{}, nil)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		for t := 0.0; t < w.horizon; {
			t += w.horizon / 40 * (0.5 + rng.Float64())
			s2.StepTo(t)
		}
		if err := sameReport(w.name+": segmented vs one-shot", v.ref, s2.Finish().Format()); err != nil {
			o.problemf("%v", err)
		}
	}
	if w.check != nil {
		for _, msg := range w.check(rep) {
			o.problemf("%s: %s", w.name, msg)
		}
	}

	// The oracle pass, on the timed run's engine configuration.
	sc, _, err := load(nil, 0, w.name, w.source(seed, w.horizon, w.shards), scenario.Options{Check: true}, nil)
	if err != nil {
		return nil, err
	}
	var known func(invariant.Violation) bool
	if w.known != nil {
		known = w.known(sc)
	}
	if err := v.oracle(o, w.name, sc.Finish(), known); err != nil {
		return nil, err
	}
	return v, nil
}

// timedDP runs sessions until the budget is spent. tr and timers are nil
// in the untraced run.
func (w *dataPlane) timedDP(o *outcome, seed int64, budget time.Duration, v *dpValidation, tr *tracer) error {
	src := w.source(seed, w.horizon, w.shards)
	var timers []*schedTimer
	var timersP *[]*schedTimer
	if tr != nil {
		timersP = &timers
	}

	var parse, compile, start, report []float64
	setups := newSetupSampler()
	setup := func() (float64, error) {
		_, st, err := load(tr, uint64(len(setups.times)), w.name, src, scenario.Options{}, nil)
		parse, compile, start = append(parse, st.parse), append(compile, st.compile), append(start, st.start)
		return st.total(), err
	}
	if err := setups.catchUp(setup); err != nil {
		return err
	}

	// steps and reads are profiles over a session's step positions; hops
	// and calls are stamped on the clock of time spent in Network.Run, so
	// the throughputs count host seconds of running only.
	var steps, reads profile
	var hops, calls series
	var sessions []float64
	var runS, simS float64
	var events uint64
	var perShard []uint64
	var gets, news int64
	pendingMax := 0
	var last *scenario.Sim
	phase := time.Now()
	deadline := phase.Add(budget)
	for id := uint64(1); time.Now().Before(deadline); id++ {
		if err := setups.catchUp(setup); err != nil {
			return err
		}
		tr.begin("session", id)
		t0 := time.Now()
		s, st, err := load(tr, id, w.name, src, scenario.Options{}, timersP)
		if err != nil {
			return err
		}
		parse, compile, start = append(parse, st.parse), append(compile, st.compile), append(start, st.start)
		prevHops := int64(0)
		for k := 1; !s.Done() && time.Now().Before(deadline); k++ {
			target := min(float64(k)*w.quantum, w.horizon)
			ts := time.Now()
			tr.begin("core.run", id)
			s.Net.Run(target - s.Now())
			tr.end()
			d := time.Since(ts).Seconds()
			runS += d
			steps.add(k, d)
			h := ports(s).hops
			hops.add(runS, float64(h-prevHops))
			calls.add(runS, 1)
			prevHops = h
			if k%w.readEvery == 0 {
				tq := time.Now()
				tr.begin("scenario.live", id)
				liveRead(s)
				tr.end()
				reads.add(k, time.Since(tq).Seconds())
			}
			pendingMax = max(pendingMax, engines(s).pending)
		}
		simS += s.Now()
		et := engines(s)
		events += et.events
		for i, n := range et.perShard {
			if i >= len(perShard) {
				perShard = append(perShard, 0)
			}
			perShard[i] += n
		}
		g, n := poolTotals(s)
		gets, news = gets+g, news+n
		if s.Done() {
			tq := time.Now()
			text := finish(tr, id, s)
			report = append(report, time.Since(tq).Seconds())
			sessions = append(sessions, time.Since(t0).Seconds())
			if err := sameReport(fmt.Sprintf("%s: timed session %d", w.name, id), v.ref, text); err != nil {
				o.problemf("%v", err)
			}
			last = s
		} else if last == nil {
			last = s
		}
		tr.end()
	}
	o.attempted += int64(steps.n() + reads.n() + len(sessions))

	o.e2e["setup_s"] = median(setups.times)
	o.e2e["pkt_hops_per_s"] = hops.rate(window)
	o.e2e["calls_per_s"] = calls.rate(window)
	o.e2e["call_setup_p50_us"] = steps.quantile(0.5) * 1e6
	o.e2e["call_setup_p99_us"] = steps.quantile(0.99) * 1e6
	o.e2e["req_p50_ms"] = reads.quantile(0.5) * 1e3
	o.e2e["req_p99_ms"] = reads.quantile(0.99) * 1e3
	if len(sessions) > 0 {
		o.e2e["session_p50_s"] = median(sessions)
	} else {
		o.e2e["session_p50_s"] = v.sessionS
	}
	o.e2e["heap_live_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	var totalHops float64
	for _, h := range hops.values() {
		totalHops += h
	}

	L := o.layers
	L["scenario.parse_s"] = median(parse)
	L["scenario.compile_s"] = median(compile)
	L["scenario.start_s"] = median(start)
	L["scenario.report_s"] = median(report)
	L["core.run_s"] = runS
	L["core.ns_per_hop"] = runS * 1e9 / totalHops
	L["sim.events"] = float64(events)
	L["sim.ns_per_event"] = runS * 1e9 / float64(events)
	L["sim.pending_max"] = float64(pendingMax)
	if w.shards > 1 {
		L["coord.speedup"] = v.seqRunS / (runS / simS)
		if s := last; s != nil {
			L["coord.events_per_window"] = float64(events) / (simS / s.Net.Lookahead())
		}
		var most, sum uint64
		for _, n := range perShard {
			most, sum = max(most, n), sum+n
		}
		if sum > 0 {
			L["coord.shard_balance"] = float64(most) / (float64(sum) / float64(len(perShard)))
		}
	}
	L["packet.pool_gets"] = float64(gets)
	L["packet.pool_news"] = float64(news)
	if gets > 0 {
		L["packet.reuse_ratio"] = 1 - float64(news)/float64(gets)
	}
	v.layers(L)
	schedLayer(L, timers)
	return nil
}

func (w *dataPlane) run(o *outcome, cfg config) error {
	v, err := w.validateDP(o, cfg.seed)
	if err != nil {
		return err
	}
	return cfg.phases(o, func(p *outcome, tr *tracer) error {
		return w.timedDP(p, cfg.seed, cfg.budget, v, tr)
	})
}

// table3KnownFinding accepts the oracle finding README.md records for
// paper-table3: pg-bound violations on the guaranteed-peak flows. Any other
// checker, or a pg-bound violation on any other flow, is a failure.
func table3KnownFinding(s *scenario.Sim) func(invariant.Violation) bool {
	peak := map[string]bool{}
	for _, f := range table3Flows {
		if sf := s.FlowByName(fmt.Sprintf("f%d", f.ID)); f.Kind == "peak" && sf != nil && sf.Flow != nil {
			peak[fmt.Sprintf("flow %d", sf.Flow.ID)] = true
		}
	}
	return func(v invariant.Violation) bool {
		return v.Checker == invariant.CheckPGBound && peak[v.Subject]
	}
}

// table3Orderings checks the paper's Table 3 claims on a report:
// guaranteed-peak flows see lower 99.9th-percentile delays than
// guaranteed-average flows, predicted-high lower than predicted-low, and
// the bottleneck links run above 95% utilization.
func table3Orderings(r *scenario.Report) []string {
	var msgs []string
	kindOf := map[string]string{}
	for _, f := range table3Flows {
		kindOf[fmt.Sprintf("f%d", f.ID)] = f.Kind
	}
	p999 := -1
	for i, p := range r.Percentiles {
		if math.Abs(p-0.999) < 1e-9 {
			p999 = i
		}
	}
	if p999 < 0 {
		return []string{"report has no p99.9 column"}
	}
	lo, hi := map[string]float64{}, map[string]float64{}
	for _, f := range r.Flows {
		k, ok := kindOf[f.Name]
		if !ok {
			continue
		}
		v := f.PctMS[p999]
		if cur, seen := lo[k]; !seen || v < cur {
			lo[k] = v
		}
		hi[k] = max(hi[k], v)
	}
	if !(hi["peak"] < lo["avg"]) {
		msgs = append(msgs, fmt.Sprintf("guaranteed-peak p99.9 (max %.2f ms) not below guaranteed-avg (min %.2f ms)", hi["peak"], lo["avg"]))
	}
	if !(hi["high"] < lo["low"]) {
		msgs = append(msgs, fmt.Sprintf("predicted-high p99.9 (max %.2f ms) not below predicted-low (min %.2f ms)", hi["high"], lo["low"]))
	}
	util := 0.0
	for _, l := range r.Links {
		util = max(util, l.Utilization)
	}
	if util <= 0.95 {
		msgs = append(msgs, fmt.Sprintf("bottleneck utilization %.1f%% not above 95%%", 100*util))
	}
	return msgs
}
