package main

// In-memory span tracing, recorded by the benchmark around its own calls
// into each layer's public functions; nothing inside the program is
// instrumented. A nil *tracer is the untraced mode: every method is a no-op.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call. Start and End are nanoseconds since the tracer
// started; Self is the duration minus the time covered by child spans;
// Parent is the index of the enclosing span in the recorded list (-1 for a
// root, or when the parent was not kept); ID is shared by every span of one
// call or session.
type span struct {
	Name             string
	Start, End, Self int64
	Parent           int32
	ID               uint64
}

// nameStats aggregates every span of one name, kept or not.
type nameStats struct {
	count int64
	total int64   // summed duration, ns
	self  int64   // summed self time (duration minus child coverage), ns
	durs  []int64 // every duration, ns, for percentiles
}

// open is a span that has begun and not yet ended.
type open struct {
	name  string
	start int64
	child int64 // time covered by ended child spans
	index int32 // position in spans, or -1 when not kept
	id    uint64
}

// tracer records properly nested spans from one goroutine. Spans are kept up
// to a fixed count (the file written at the end); the per-name aggregates
// cover every span, so self times and percentiles never depend on the cap.
type tracer struct {
	clock   func() int64
	keep    int
	spans   []span
	dropped int64
	stack   []open
	names   map[string]*nameStats
}

// maxKeptSpans caps the spans one tracer keeps for writing out.
const maxKeptSpans = 200_000

func newTracer() *tracer {
	t0 := time.Now()
	return newTracerClock(func() int64 { return int64(time.Since(t0)) }, maxKeptSpans)
}

func newTracerClock(clock func() int64, keep int) *tracer {
	return &tracer{clock: clock, keep: keep, names: make(map[string]*nameStats)}
}

// begin opens a span named name for call or session id, nested inside the
// innermost open span.
func (t *tracer) begin(name string, id uint64) {
	if t == nil {
		return
	}
	o := open{name: name, start: t.clock(), index: -1, id: id}
	if len(t.spans) < t.keep {
		parent := int32(-1)
		if k := len(t.stack); k > 0 {
			parent = t.stack[k-1].index
		}
		o.index = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: o.start, End: -1, Parent: parent, ID: id})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, o)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	k := len(t.stack) - 1
	o := t.stack[k]
	t.stack = t.stack[:k]
	now := t.clock()
	d := now - o.start
	if o.index >= 0 {
		t.spans[o.index].End = now
		t.spans[o.index].Self = d - o.child
	}
	if k > 0 {
		t.stack[k-1].child += d
	}
	ns := t.names[o.name]
	if ns == nil {
		ns = &nameStats{}
		t.names[o.name] = ns
	}
	ns.count++
	ns.total += d
	ns.self += d - o.child
	ns.durs = append(ns.durs, d)
}

// stat returns the aggregate for name (empty when no span had that name).
func (t *tracer) stat(name string) *nameStats {
	if t == nil {
		return &nameStats{}
	}
	if ns := t.names[name]; ns != nil {
		return ns
	}
	return &nameStats{}
}

// pct returns the p-quantile of name's durations, in ns (0 when none).
func (t *tracer) pct(name string, p float64) float64 {
	return quantileInt(t.stat(name).durs, p)
}

// writeSpans writes the kept spans as tab-separated lines (name, start ns,
// end ns, parent index, id, self ns), followed by a per-name summary.
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tstart_ns\tend_ns\tparent\tid\tself_ns\n")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.Name, s.Start, s.End, s.Parent, s.ID, s.Self)
	}
	fmt.Fprintf(w, "# %d spans not kept (cap %d); the summary below covers every span\n", t.dropped, t.keep)
	names := make([]string, 0, len(t.names))
	for n := range t.names {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ns := t.names[n]
		fmt.Fprintf(w, "# summary %s count=%d total_ns=%d self_ns=%d\n", n, ns.count, ns.total, ns.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
