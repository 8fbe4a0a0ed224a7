// Command perfbench is the repository's benchmark: it runs one seeded
// workload for a fixed host-time budget, checks the program's outputs, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last line of standard output. See README.md.
//
//	perfbench --workload paper-table3 --seed 1 --seconds 25 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times each invocation sets its workload up before
// the timed phase; during it, set-ups continue every setupEvery. setup_s is
// the median of them all.
const (
	setupReps  = 21
	setupEvery = 100 * time.Millisecond
)

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(o *outcome, cfg config) error
}

var workloads = []workload{
	{"paper-table3", table3Workload.run},
	{"mesh-2shard", meshWorkload.run},
	{"call-churn", runChurn},
	{"serve-sessions", runServe},
}

// config is one invocation's arguments.
type config struct {
	name   string
	seed   int64
	budget time.Duration
	trace  bool
}

// phases runs the timed phase untraced; in trace mode it runs it once more
// with spans and scheduler timers on, takes the per-layer metrics from that
// run and reports the tracing overhead as the traced-vs-untraced difference
// of every end-to-end metric.
func (c config) phases(o *outcome, timed func(p *outcome, tr *tracer) error) error {
	if err := timed(o, nil); err != nil {
		return err
	}
	if !c.trace {
		return nil
	}
	t := newOutcome()
	tr := newTracer()
	if err := timed(t, tr); err != nil {
		return err
	}
	o.problems = append(o.problems, t.problems...)
	o.attempted += t.attempted
	o.failed += t.failed
	untraced := o.layers
	o.layers = t.layers
	// The speedup compares against an untraced sequential run, so it is
	// taken from the untraced phase.
	if v, ok := untraced["coord.speedup"]; ok {
		o.layers["coord.speedup"] = v
	}
	for _, layer := range []string{"scenario", "core", "admission", "routing", "serve"} {
		var self int64
		for name, ns := range tr.names {
			if strings.HasPrefix(name, layer+".") {
				self += ns.self
			}
		}
		o.layers[layer+".self_s"] = float64(self) / 1e9
	}
	for _, m := range endToEnd {
		o.layers["trace_overhead."+m.Name] = overhead(m, o.e2e[m.Name], t.e2e[m.Name])
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.tsv", c.name, c.seed))
	if err := writeSpans(path, tr); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds the timed phase measures")
	trace := flag.Int("trace", 0, "1 = traced run, print per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(names, ","))
		os.Exit(2)
	}
	cfg := config{name: w.name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	o := newOutcome()
	if err := w.run(o, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}

	keys := make([]string, 0, len(o.digests))
	for k := range o.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("report digest %s %s\n", k, o.digests[k])
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	defs, vals := endToEnd, o.e2e
	if cfg.trace {
		defs, vals = perLayer, o.layers
	}
	line, err := resultLine(o, defs, vals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// overhead is how much worse the traced value reads than the untraced base,
// as a share of the base: positive when tracing slowed the metric down.
func overhead(m metricDef, base, traced float64) float64 {
	if base == 0 || traced == 0 {
		return 0
	}
	if m.Better == "higher" {
		return base/traced - 1
	}
	return traced/base - 1
}
