package pipeline

import "cyberhd/internal/netflow"

// egressRun is the most alerts the sync Engine hands its sink goroutine at
// once, and egressRuns the number of runs it owns: one filling on the
// feeder, the rest queued or in delivery: 8 runs of 64 flows and their
// alerts are about 240 KiB.
const (
	egressRun  = 64
	egressRuns = 8
)

// egress runs a sync Engine's sinks on one goroutine of their own, so that
// formatting and writing alerts (JSONLSink) overlap with the feeder's
// packet path instead of adding to it. The feeder copies each alert's
// flow into a slot of a preallocated run, and hands the run over when it
// is full and when the engine call that raised the alert returns; the
// goroutine calls every sink's Consume for each alert of the run, in
// verdict order, and returns the run. The feeder blocks when no run is
// free, so delivery stays lossless. Every method but deliver runs on the
// feeder.
//
// The goroutine starts at the first handoff, so an engine whose sinks
// never get an alert starts none, and it ends in close.
type egress struct {
	sinks []AlertSink
	// free holds the runs the feeder may fill; full carries filled runs to
	// the goroutine, which sends each back on free once delivered. Both
	// have room for every run, so neither send ever waits.
	free, full chan *alertRun
	// open is the run the feeder fills, nil until the next alert takes one.
	open    *alertRun
	done    chan struct{} // closes when the goroutine ends
	started bool
}

// alertRun is one handoff: up to egressRun alerts, each pointing at its
// own copy of the flow, so the engine can recycle the original at once.
type alertRun struct {
	n      int
	alerts [egressRun]Alert
	flows  [egressRun]netflow.Flow
}

// newEgress allocates every run up front: the steady state allocates
// nothing.
func newEgress(sinks []AlertSink) *egress {
	o := &egress{
		sinks: sinks,
		free:  make(chan *alertRun, egressRuns),
		full:  make(chan *alertRun, egressRuns),
		done:  make(chan struct{}),
	}
	runs := make([]alertRun, egressRuns)
	for i := range runs {
		r := &runs[i]
		for j := range r.alerts {
			r.alerts[j].Flow = &r.flows[j]
		}
		o.free <- r
	}
	return o
}

// add queues a copy of a, handing the run over once it is full. It waits
// for a free run while all egressRuns runs are handed over and not yet
// delivered.
func (o *egress) add(a *Alert) {
	if o.open == nil {
		o.open = <-o.free
	}
	r := o.open
	slot := &r.alerts[r.n]
	*slot.Flow = *a.Flow
	slot.Class, slot.ClassName, slot.Time = a.Class, a.ClassName, a.Time
	if r.n++; r.n == egressRun {
		o.handoff()
	}
}

// handoff sends the open run, if any, to the goroutine, starting it on
// the first call.
func (o *egress) handoff() {
	if o.open == nil {
		return
	}
	if !o.started {
		o.started = true
		go o.deliver()
	}
	o.full <- o.open
	o.open = nil
}

// drain hands the open run over and returns once every alert added so far
// has been consumed: once every run is back on free, none is queued or in
// delivery.
func (o *egress) drain() {
	o.handoff()
	if !o.started {
		return
	}
	var runs [egressRuns]*alertRun
	for i := range runs {
		runs[i] = <-o.free
	}
	for _, r := range runs {
		o.free <- r
	}
}

// close ends the goroutine, once it has delivered every run handed over:
// the engine calls it once, after a Flush, which leaves no alert unsent.
func (o *egress) close() {
	if o.started {
		close(o.full)
		<-o.done
	}
}

// deliver is the sink goroutine: every sink consumes every alert of a run,
// in order, and the run goes back to the feeder. A sink that panics is not
// recovered: it ends the process, as it would on any goroutine.
func (o *egress) deliver() {
	defer close(o.done)
	for r := range o.full {
		for i := range r.n {
			for _, s := range o.sinks {
				s.Consume(r.alerts[i])
			}
		}
		r.n = 0
		o.free <- r
	}
}
