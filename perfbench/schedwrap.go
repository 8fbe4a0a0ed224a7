package main

// A forwarding scheduler decorator for the traced run: installed on every
// port with Port.SetScheduler, it times each Enqueue and Dequeue and passes
// everything through unchanged. The port type-asserts sched.NonWorkConserving
// on its scheduler, so a decorator around a scheduler that implements it
// must implement it too, and one around a scheduler that does not must not.
// The traced run's reports are byte-compared with the untraced reference,
// which is what shows the decorator leaves results unchanged.

import (
	"time"

	"ispn/internal/packet"
	"ispn/internal/scenario"
	"ispn/internal/sched"
)

// schedTimer accumulates one port's enqueue/dequeue timings. Each port runs
// on one engine, so a timer is only ever touched by one goroutine at a time.
type schedTimer struct {
	kind         string
	enqN, deqN   int64
	enqNs, deqNs int64
}

type timedSched struct {
	inner sched.Scheduler
	t     *schedTimer
}

func (s *timedSched) Enqueue(p *packet.Packet, now float64) {
	t0 := time.Now()
	s.inner.Enqueue(p, now)
	s.t.enqNs += int64(time.Since(t0))
	s.t.enqN++
}

func (s *timedSched) Dequeue(now float64) *packet.Packet {
	t0 := time.Now()
	p := s.inner.Dequeue(now)
	s.t.deqNs += int64(time.Since(t0))
	s.t.deqN++
	return p
}

func (s *timedSched) Peek() *packet.Packet { return s.inner.Peek() }
func (s *timedSched) Len() int             { return s.inner.Len() }

// timedNWC is timedSched for non-work-conserving schedulers.
type timedNWC struct {
	timedSched
	nwc sched.NonWorkConserving
}

func (s *timedNWC) NextEligible(now float64) float64 { return s.nwc.NextEligible(now) }

// wrapScheduler returns the decorator for inner, forwarding NextEligible
// exactly when inner has it.
func wrapScheduler(inner sched.Scheduler, t *schedTimer) sched.Scheduler {
	ts := timedSched{inner: inner, t: t}
	if nwc, ok := inner.(sched.NonWorkConserving); ok {
		return &timedNWC{timedSched: ts, nwc: nwc}
	}
	return &ts
}

// instrumentPorts installs a decorator on every port of a compiled scenario
// (before Start, while every queue is empty) and returns the timers.
func instrumentPorts(s *scenario.Sim) []*schedTimer {
	var timers []*schedTimer
	for _, pt := range s.Net.Topology().Ports() {
		t := &schedTimer{kind: s.Net.ProfileAt(pt).Kind}
		pt.SetScheduler(wrapScheduler(pt.Scheduler(), t))
		timers = append(timers, t)
	}
	return timers
}

// schedLayer adds the per-kind mean enqueue/dequeue times to layers.
func schedLayer(layers map[string]float64, timers []*schedTimer) {
	type acc struct{ enqN, deqN, enqNs, deqNs int64 }
	by := map[string]*acc{}
	for _, t := range timers {
		a := by[t.kind]
		if a == nil {
			a = &acc{}
			by[t.kind] = a
		}
		a.enqN += t.enqN
		a.deqN += t.deqN
		a.enqNs += t.enqNs
		a.deqNs += t.deqNs
	}
	for kind, a := range by {
		if a.enqN > 0 {
			layers["sched."+kind+".enqueue_ns"] = float64(a.enqNs) / float64(a.enqN)
		}
		if a.deqN > 0 {
			layers["sched."+kind+".dequeue_ns"] = float64(a.deqNs) / float64(a.deqN)
		}
	}
}
