package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// Runner is the serving loop of Fig 1(a): it pumps a netflow.PacketSource
// into a Stream under a context, auto-ticking from packet capture
// timestamps so idle-flow eviction and micro-batch draining never depend
// on caller cooperation, and closes (drains) the stream when the source
// ends or the context cancels. Alerts flow to the engine's OnAlert and
// Config.Sinks as usual — build the stream with NewRunner (the facade's
// NewServeRunner) to wire sinks in one step.
//
// A Runner drives one source into one stream exactly once; build a new
// one per run. Verdicts are bit-identical to hand-feeding the same
// packets: auto-ticks only move evictions earlier in the feed order,
// never change which flows exist or how they featurize (pinned by the
// root package's TestContractMatrix).
type Runner struct {
	// Stream is the engine being driven. Required.
	Stream Stream
	// Source supplies the time-ordered packets. Required.
	Source netflow.PacketSource
	// TickInterval is the auto-tick period in capture seconds: Run calls
	// Tick as packet timestamps cross each interval boundary, so idle flows
	// evict and partial micro-batches drain without caller cooperation.
	// 0 selects 1 s; negative disables auto-ticking. Engines themselves
	// never tick spontaneously.
	TickInterval float64
	// Progress, when set, receives a telemetry snapshot as packet
	// timestamps cross each ProgressInterval boundary of the capture
	// clock, plus one final settled snapshot after the drain. It runs on
	// the Run goroutine and must not call back into the stream's Feed,
	// Tick, Flush or Close (Stats is fine).
	Progress func(telemetry.Snapshot)
	// ProgressInterval is the Progress cadence in capture seconds: 0
	// selects 10 s, negative disables periodic snapshots (the final one
	// still fires).
	ProgressInterval float64

	// ran guards single-use: a second Run would re-drive a closed stream.
	ran bool
}

// NewRunner builds the stream cfg describes (see NewStream for the
// engine and gate choice) and a runner that will pump src through it.
// Alert fan-out comes from cfg.OnAlert and cfg.Sinks. Tick and progress
// cadence start at the Runner defaults (1 s ticks, no progress): set
// TickInterval, Progress and ProgressInterval on the result before Run.
func NewRunner(cfg Config, src netflow.PacketSource) (*Runner, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil packet source")
	}
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{Stream: s, Source: src}, nil
}

// Run pumps packets from the source into the stream until the source is
// exhausted, the source fails, or ctx is cancelled — whichever comes
// first — then closes the stream (deterministic drain: every fed packet's
// flow completes and classifies) and returns its final Stats.
//
// On cancellation Run finishes the packet in flight, drains, and returns
// the stats together with ctx.Err(); on a source failure it drains and
// returns the wrapped source error. A nil ctx runs to end of source.
func (r *Runner) Run(ctx context.Context) (Stats, error) {
	if r.Stream == nil || r.Source == nil {
		return Stats{}, fmt.Errorf("pipeline: runner needs both a stream and a source")
	}
	if r.ran {
		return Stats{}, fmt.Errorf("pipeline: runner already ran — build a new one per run")
	}
	r.ran = true
	if ctx == nil {
		ctx = context.Background()
	}

	interval := r.TickInterval
	if interval == 0 {
		interval = 1
	}
	progEvery := r.ProgressInterval
	if progEvery == 0 {
		progEvery = 10
	}
	done := ctx.Done()
	var p netflow.Packet
	var nextTick, nextProg float64
	first := true
	var err error
loop:
	for {
		select {
		case <-done:
			err = ctx.Err()
			break loop
		default:
		}
		if serr := r.Source.Next(&p); serr != nil {
			if errors.Is(serr, io.EOF) {
				break
			}
			if cerr := ctx.Err(); cerr != nil && errors.Is(serr, cerr) {
				err = cerr // a source watching the same context gave up
				break
			}
			err = fmt.Errorf("pipeline: packet source: %w", serr)
			break
		}
		// The capture clock seeds from and advances on finite times only (a
		// NaN or ±Inf stamp would stop the ticks); the packet is fed anyway.
		clocked := finite(p.Time)
		if clocked && first {
			nextTick = p.Time + interval
			nextProg = p.Time + progEvery
			first = false
		}
		if clocked && interval > 0 && p.Time >= nextTick {
			// Tick once at the last interval boundary the stream slept
			// through. Ticks carry boundary times, not packet times, so
			// eviction is anchored to the capture clock; and because
			// nothing runs between packets anyway, the intermediate
			// boundaries of a long quiet gap would all be processed
			// back-to-back right here — one tick at the newest boundary
			// evicts the same flows without pumping O(gap/interval) no-op
			// messages through the engine.
			boundary := nextTick + interval*math.Floor((p.Time-nextTick)/interval)
			r.Stream.Tick(boundary)
			nextTick = boundary + interval
		}
		r.Stream.Feed(p)
		if clocked && r.Progress != nil && progEvery > 0 && p.Time >= nextProg {
			if tel := r.Stream.Telemetry(); tel != nil {
				r.Progress(tel.Snapshot())
			}
			// Like auto-ticks, progress collapses quiet gaps: one
			// snapshot at the newest crossed boundary, not one per
			// elapsed interval.
			boundary := nextProg + progEvery*math.Floor((p.Time-nextProg)/progEvery)
			nextProg = boundary + progEvery
		}
	}
	r.Stream.Close()
	if r.Progress != nil {
		if tel := r.Stream.Telemetry(); tel != nil {
			// Final settled snapshot: every counter is exact after the
			// drain.
			r.Progress(tel.Snapshot())
		}
	}
	return r.Stream.Stats(), err
}
