package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric with its unit and which direction is better;
// BENCHMARK.json lists the same metrics (a test holds them in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees. Every run prints all
// of them; README.md says what each one counts on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pkt_hops_per_s", "1/s", "higher"},
	{"calls_per_s", "1/s", "higher"},
	{"call_setup_p50_us", "us", "lower"},
	{"call_setup_p99_us", "us", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"session_p50_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload leaves idle
// reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.parse_s", "s", "lower"},
		{"scenario.compile_s", "s", "lower"},
		{"scenario.start_s", "s", "lower"},
		{"scenario.report_s", "s", "lower"},
		{"scenario.self_s", "s", "lower"},
		{"core.run_s", "s", "lower"},
		{"core.ns_per_hop", "ns", "lower"},
		{"core.self_s", "s", "lower"},
		{"core.carriers", "count", "lower"},
		{"core.bytes_per_member", "B", "lower"},
		{"sim.events", "count", "higher"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.pending_max", "count", "lower"},
		{"coord.speedup", "ratio", "higher"},
		{"coord.events_per_window", "count", "higher"},
		{"coord.shard_balance", "ratio", "lower"},
	}
	for _, k := range schedKinds {
		defs = append(defs,
			metricDef{"sched." + k + ".enqueue_ns", "ns", "lower"},
			metricDef{"sched." + k + ".dequeue_ns", "ns", "lower"})
	}
	defs = append(defs, []metricDef{
		{"packet.pool_gets", "count", "higher"},
		{"packet.pool_news", "count", "lower"},
		{"packet.reuse_ratio", "ratio", "higher"},
		{"topology.pkt_hops", "count", "higher"},
		{"topology.drops", "count", "lower"},
		{"topology.util_max", "ratio", "higher"},
		{"admission.request_ns_p50", "ns", "lower"},
		{"admission.request_ns_p99", "ns", "lower"},
		{"admission.release_ns_p50", "ns", "lower"},
		{"admission.refusal_ratio", "ratio", "lower"},
		{"admission.self_s", "s", "lower"},
		{"routing.lookup_ns_p50", "ns", "lower"},
		{"routing.lookup_ns_p99", "ns", "lower"},
		{"routing.cache_hit_ratio", "ratio", "higher"},
		{"routing.invalidations", "count", "lower"},
		{"routing.self_s", "s", "lower"},
		{"serve.create_ms", "ms", "lower"},
		{"serve.events_ms", "ms", "lower"},
		{"serve.status_ms", "ms", "lower"},
		{"serve.flows_ms", "ms", "lower"},
		{"serve.report_ms", "ms", "lower"},
		{"serve.http_errors", "count", "lower"},
		{"serve.self_s", "s", "lower"},
		{"invariant.deliveries_checked", "count", "higher"},
		{"invariant.violations", "count", "lower"},
	}...)
	// The tracing overhead of each end-to-end metric: how much worse the
	// traced run read than the untraced one, as a share of the untraced
	// value (positive = the traced run was worse).
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"trace_overhead." + m.Name, "ratio", "lower"})
	}
	return defs
}()

// schedKinds are the pipeline kinds the workloads' links run; the traced
// run times enqueue and dequeue per kind.
var schedKinds = []string{"unified", "wfq"}

// outcome is what one workload invocation measured and checked.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string          // correctness failures; any one fails the run
	digests   map[string]string // report digests, printed so runs can be compared
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, digests: map[string]string{}}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the contract's one-line JSON result with every metric
// of defs, taking values from vals.
func resultLine(o *outcome, defs []metricDef, vals map[string]float64) (string, error) {
	r := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// quantile returns the p-quantile (0..1) of xs by the nearest-rank rule; xs
// is sorted in place. 0 when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	k = max(0, min(k, len(xs)-1))
	return xs[k]
}

// quantileInt is quantile over nanosecond durations (a sorted copy).
func quantileInt(xs []int64, p float64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return quantile(fs, p)
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// liveHeapMB forces a collection and returns the live heap in MiB. Callers
// keep their workload state reachable across the call. The second
// collection empties the sync.Pool victim caches the first one leaves.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sample is one measurement taken t seconds into a timed phase.
type sample struct{ t, v float64 }

// series collects a timed phase's samples. Its figures are medians over
// fixed windows of the phase clock: on a shared machine a stall moves the
// windows it falls in, not the reported value.
type series struct{ xs []sample }

func (s *series) add(t, v float64) { s.xs = append(s.xs, sample{t, v}) }

// since records the latency of an operation that began at t0, stamped with
// its end on the phase clock that started at phase, and returns it.
func (s *series) since(phase, t0 time.Time) float64 {
	now := time.Now()
	d := now.Sub(t0).Seconds()
	s.add(now.Sub(phase).Seconds(), d)
	return d
}

func (s *series) n() int { return len(s.xs) }

// windows groups the values by window of w seconds, empty windows
// included. The last window is partial and is dropped when there are others.
func (s *series) windows(w float64) [][]float64 {
	byIdx := map[int][]float64{}
	last := 0
	for _, x := range s.xs {
		k := int(x.t / w)
		byIdx[k] = append(byIdx[k], x.v)
		last = max(last, k)
	}
	var out [][]float64
	for k := 0; k <= last; k++ {
		if k == last && len(out) > 0 {
			break
		}
		out = append(out, byIdx[k])
	}
	return out
}

// quantile is the median over windows of each window's p-quantile.
func (s *series) quantile(w, p float64) float64 {
	var qs []float64
	for _, vs := range s.windows(w) {
		if len(vs) > 0 {
			qs = append(qs, quantile(vs, p))
		}
	}
	return median(qs)
}

// rate is the median over windows of the window's summed values per second.
func (s *series) rate(w float64) float64 {
	var rs []float64
	for _, vs := range s.windows(w) {
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		rs = append(rs, sum/s.span(w))
	}
	return median(rs)
}

// countRate is the median over windows of the window's sample count per
// second.
func (s *series) countRate(w float64) float64 {
	var rs []float64
	for _, vs := range s.windows(w) {
		rs = append(rs, float64(len(vs))/s.span(w))
	}
	return median(rs)
}

// span is the seconds a window covers: w, or less when a phase shorter
// than one window left only a partial one.
func (s *series) span(w float64) float64 {
	end := 0.0
	for _, x := range s.xs {
		end = max(end, x.t)
	}
	if end > 0 && end < w {
		return end
	}
	return w
}

// values returns every sample's value.
func (s *series) values() []float64 {
	out := make([]float64, len(s.xs))
	for i, x := range s.xs {
		out[i] = x.v
	}
	return out
}

// profile collects the latencies of the operations at each position k of a
// session. Every session of an invocation simulates the same input, so the
// operations at one position do the same work: the median at a position
// leaves out host interference, and the quantiles are taken over positions,
// so they describe the program's own spread of operation costs.
type profile struct{ at [][]float64 }

func (p *profile) add(k int, v float64) {
	for len(p.at) <= k {
		p.at = append(p.at, nil)
	}
	p.at[k] = append(p.at[k], v)
}

// n is the number of operations recorded.
func (p *profile) n() int {
	n := 0
	for _, vs := range p.at {
		n += len(vs)
	}
	return n
}

// medians returns the median at each position that at least half the
// sessions reached.
func (p *profile) medians() []float64 {
	most := 0
	for _, vs := range p.at {
		most = max(most, len(vs))
	}
	var meds []float64
	for _, vs := range p.at {
		if len(vs) > 0 && 2*len(vs) >= most {
			meds = append(meds, median(vs))
		}
	}
	return meds
}

// quantile is the q-quantile over positions of each position's median.
func (p *profile) quantile(q float64) float64 { return quantile(p.medians(), q) }
