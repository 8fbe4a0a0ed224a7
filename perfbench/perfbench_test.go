package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"ispn/internal/core"
	"ispn/internal/experiments"
	"ispn/internal/invariant"
	"ispn/internal/packet"
	"ispn/internal/scenario"
	"ispn/internal/sched"
)

func compileSrc(t *testing.T, name, src string, opts scenario.Options) *scenario.Sim {
	t.Helper()
	f, err := scenario.Parse(name+".ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	s, err := scenario.Compile(f, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return s
}

// The generated paper-table3 source is the paper's configuration as the
// experiments package encodes it: same flows, paths, service kinds and
// rates, the host token bucket on the guaranteed flows, and the two TCP
// connections.
func TestTable3SourceMatchesPaper(t *testing.T) {
	src := genTable3(1992, 60)
	s := compileSrc(t, "paper-table3", src, scenario.Options{})
	assign := experiments.Table3Assignment()
	flows := experiments.Figure1Flows()
	if len(s.Flows) != len(flows) {
		t.Fatalf("%d flows, want %d", len(s.Flows), len(flows))
	}
	for _, fp := range flows {
		name := fmt.Sprintf("f%d", fp.ID)
		sf := s.FlowByName(name)
		if sf == nil || sf.Flow == nil {
			t.Fatalf("flow %s missing", name)
		}
		if got, want := strings.Join(sf.Flow.Path(), ","), strings.Join(fp.Path, ","); got != want {
			t.Errorf("%s path %s, want %s", name, got, want)
		}
		var kind string
		var rate float64
		switch assign[fp.ID] {
		case experiments.GuaranteedPeak:
			kind, rate = "Guaranteed", experiments.PeakFactor*experiments.AvgRate*experiments.PacketBits
		case experiments.GuaranteedAvg:
			kind, rate = "Guaranteed", experiments.AvgRate*experiments.PacketBits
		case experiments.PredictedHigh, experiments.PredictedLow:
			kind, rate = "Predicted", experiments.AvgRate*experiments.PacketBits
		}
		if sf.Kind != kind {
			t.Errorf("%s is %s, want %s", name, sf.Kind, kind)
		}
		if got := sf.Flow.DeclaredRate(); got != rate {
			t.Errorf("%s declares %v bit/s, want %v", name, got, rate)
		}
		wantClass := uint8(0)
		if assign[fp.ID] == experiments.PredictedLow {
			wantClass = 1
		}
		if kind == "Predicted" && sf.Flow.Priority != wantClass {
			t.Errorf("%s in class %d, want %d", name, sf.Flow.Priority, wantClass)
		}
		tb := fmt.Sprintf("tb%d :: TokenBucket(85pps, 50)", fp.ID)
		if guaranteed := kind == "Guaranteed"; strings.Contains(src, tb) != guaranteed {
			t.Errorf("%s: host (A, 50) token bucket present = %v, want %v", name, !guaranteed, guaranteed)
		}
	}
	if len(s.TCPs) != 2 || s.TCPs[0].Name != "tcp1" || s.TCPs[1].Name != "tcp2" {
		t.Errorf("want the two TCP connections, got %d", len(s.TCPs))
	}
	for _, want := range []string{"tcp1 :: TCP(path S1 -> S2 -> S3)", "tcp2 :: TCP(path S3 -> S4 -> S5)", "S1 <-> S2 <-> S3 <-> S4 <-> S5"} {
		if !strings.Contains(src, want) {
			t.Errorf("source lacks %q", want)
		}
	}
}

// Every generated workload input compiles at several seeds, and the
// call-churn and serve inputs drive as the workloads drive them.
func TestWorkloadsCompileAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 17, 1992} {
		compileSrc(t, "paper-table3", genTable3(seed, 600), scenario.Options{})
		compileSrc(t, "mesh", genMesh(seed, 20, 1), scenario.Options{})
		if s := compileSrc(t, "mesh", genMesh(seed, 20, 2), scenario.Options{}); s.Shards != 2 {
			t.Errorf("seed %d: mesh compiled to %d shards, want 2", seed, s.Shards)
		}
		s := compileSrc(t, "call-churn", genChurn(seed, 1), scenario.Options{})
		s.Start()
		r, err := newChurnRun(s, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r.advance(0.5)
		if r.calls == 0 || r.failures != 0 {
			t.Errorf("seed %d: %d calls, %d failures: %v", seed, r.calls, r.failures, r.errs)
		}
		for v := 0; v < serveVariants; v++ {
			in := genServe(seed, v)
			compileSrc(t, in.name, in.source+in.events, scenario.Options{})
			s := compileSrc(t, in.name, in.source, scenario.Options{})
			if _, err := s.InjectEvents("inject.ispn", []byte(in.events)); err != nil {
				t.Errorf("seed %d variant %d: inject: %v", seed, v, err)
			}
		}
	}
}

// Self time is a span's duration minus the part its children cover, both in
// the per-name aggregate and on each kept span.
func TestSelfTimes(t *testing.T) {
	var now int64
	tr := newTracerClock(func() int64 { return now }, 100)
	at := func(t int64) { now = t }
	at(0)
	tr.begin("call", 1) // 0..100
	at(10)
	tr.begin("routing.lookup", 1) // 10..30
	at(30)
	tr.end()
	at(40)
	tr.begin("admission.request", 1) // 40..90
	at(50)
	tr.begin("inner", 1) // 50..60
	at(60)
	tr.end()
	at(90)
	tr.end()
	at(100)
	tr.end()

	want := map[string]int64{"call": 100 - 20 - 50, "routing.lookup": 20, "admission.request": 50 - 10, "inner": 10}
	for name, self := range want {
		if got := tr.stat(name).self; got != self {
			t.Errorf("aggregate self(%s) = %d, want %d", name, got, self)
		}
	}
	for _, s := range tr.spans {
		if s.Self != want[s.Name] {
			t.Errorf("span self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	// Past the cap spans are counted, not kept, and still aggregated.
	small := newTracerClock(func() int64 { return now }, 1)
	small.begin("a", 0)
	small.begin("b", 0)
	small.end()
	small.end()
	if len(small.spans) != 1 || small.dropped != 1 || small.stat("b").count != 1 {
		t.Errorf("cap: kept %d, dropped %d, b count %d", len(small.spans), small.dropped, small.stat("b").count)
	}
}

// A profile takes each position's median, then the quantile over the
// positions that at least half the sessions reached.
func TestProfileQuantile(t *testing.T) {
	var p profile
	for session := 0; session < 4; session++ {
		for k := 0; k < 3; k++ {
			p.add(k, float64(10*k+session)) // position k costs 10k..10k+3
		}
	}
	p.add(1, 1000) // one stalled operation at position 1
	p.add(3, 500)  // a position only one session reached
	if got := p.medians(); len(got) != 3 || got[0] != 1 || got[1] != 12 || got[2] != 21 {
		t.Errorf("medians = %v, want [1 12 21]", got)
	}
	if got := p.quantile(0.99); got != 21 {
		t.Errorf("p99 = %v, want 21", got)
	}
	if p.n() != 14 {
		t.Errorf("n = %d, want 14", p.n())
	}
}

// The identity check rejects a report that differs in one digit and names
// the line.
func TestIdentityCheckRejectsPerturbedReport(t *testing.T) {
	s := compileSrc(t, "paper-table3", genTable3(1, 20), scenario.Options{})
	want := s.Run().Format()
	if err := sameReport("same", want, want); err != nil {
		t.Fatalf("identical reports rejected: %v", err)
	}
	i := strings.IndexAny(want[strings.Index(want, "f401"):], "123456789") + strings.Index(want, "f401")
	perturbed := want[:i] + string('0'+(want[i]-'0'+1)%10) + want[i+1:]
	err := sameReport("perturbed", want, perturbed)
	if err == nil {
		t.Fatal("perturbed report accepted")
	}
	line := strings.Count(want[:i], "\n") + 1
	if !strings.Contains(err.Error(), fmt.Sprintf("line %d:", line)) {
		t.Errorf("error %q does not name line %d", err, line)
	}
	if sameReport("truncated", want, want[:len(want)-1]) == nil {
		t.Error("truncated report accepted")
	}
}

// The recorded paper-table3 finding covers pg-bound violations on the
// guaranteed-peak flows and nothing else.
func TestTable3KnownFindingIsNarrow(t *testing.T) {
	s := compileSrc(t, "paper-table3", genTable3(1, 20), scenario.Options{Check: true})
	known := table3KnownFinding(s)
	subject := func(name string) string { return fmt.Sprintf("flow %d", s.FlowByName(name).Flow.ID) }
	for _, c := range []struct {
		checker, flow string
		want          bool
	}{
		{invariant.CheckPGBound, "f201", true},
		{invariant.CheckPGBound, "f203", true},
		{invariant.CheckPGBound, "f401", true},
		{invariant.CheckPGBound, "f301", false}, // guaranteed-average
		{invariant.CheckPGBound, "f109", false},
		{invariant.CheckPredicted, "f201", false},
		{invariant.CheckConservation, "f201", false},
	} {
		v := invariant.Violation{Checker: c.checker, Subject: subject(c.flow), Count: 1}
		if got := known(v); got != c.want {
			t.Errorf("%s on %s (%s): known = %v, want %v", c.checker, c.flow, v.Subject, got, c.want)
		}
	}
}

// A guaranteed request over the reservation quota is a correct refusal; one
// across a pipeline that cannot reserve a clock rate at all is a failure.
func TestRefusalMatchesOnlyQuota(t *testing.T) {
	n := core.New(core.Config{})
	for _, s := range []string{"A", "B", "C"} {
		n.AddSwitch(s)
	}
	if _, err := n.ConnectWith("A", "B", 1e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	fifo := sched.Profile{Kind: sched.KindFIFO}
	if _, err := n.ConnectWith("B", "C", 1e6, 0, &fifo); err != nil {
		t.Fatal(err)
	}
	_, err := n.RequestGuaranteed(1, []string{"A", "B"}, core.GuaranteedSpec{ClockRate: 2e6})
	if err == nil || !refusal(err) {
		t.Errorf("over-quota request: err = %v, want a refusal", err)
	}
	_, err = n.RequestGuaranteed(2, []string{"B", "C"}, core.GuaranteedSpec{ClockRate: 1e5})
	if err == nil || refusal(err) {
		t.Errorf("request across a FIFO hop: err = %v, want a failure", err)
	}
}

// The decorator forwards NextEligible exactly when the wrapped scheduler
// has it, and passes packets through in the wrapped scheduler's order.
func TestSchedulerDecoratorForwards(t *testing.T) {
	var tm schedTimer
	if _, ok := wrapScheduler(sched.NewFIFO(), &tm).(sched.NonWorkConserving); ok {
		t.Error("decorator of a work-conserving scheduler claims NextEligible")
	}
	if _, ok := wrapScheduler(sched.NewStopAndGo(0.01), &tm).(sched.NonWorkConserving); !ok {
		t.Error("decorator of a non-work-conserving scheduler hides NextEligible")
	}
	w := wrapScheduler(sched.NewFIFO(), &tm)
	a, b := &packet.Packet{FlowID: 1}, &packet.Packet{FlowID: 2}
	w.Enqueue(a, 0)
	w.Enqueue(b, 0)
	if w.Len() != 2 || w.Peek() != a || w.Dequeue(0) != a || w.Dequeue(0) != b {
		t.Error("decorator changed the service order")
	}
	if tm.enqN != 2 || tm.deqN != 2 {
		t.Errorf("timer counted %d enqueues, %d dequeues", tm.enqN, tm.deqN)
	}
}

type benchJSON struct {
	Workloads []json.RawMessage `json:"workloads"`
	EndToEnd  []json.RawMessage `json:"end_to_end"`
	PerLayer  []metricDef       `json:"per_layer"`
}

// BENCHMARK.json names exactly this program's workloads and metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		var x struct{ Name string }
		if err := json.Unmarshal(w, &x); err != nil {
			t.Fatal(err)
		}
		names = append(names, x.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		var x struct {
			Name, Unit, Better string
			Bound              float64
		}
		if err := json.Unmarshal(m, &x); err != nil {
			t.Fatal(err)
		}
		if d := endToEnd[i]; x.Name != d.Name || x.Unit != d.Unit || x.Better != d.Better || x.Bound <= 0 || x.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v with a bound in (0, 0.25]", i, x, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, perLayer[i])
		}
	}
}
