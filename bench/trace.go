package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer; they stay
// in memory and are written out when the workload ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Pass   int    `json:"pass"`   // spans of one replay share a pass id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"` // packets, flows or alerts the span covered
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, pass int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Pass: pass, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id, items int) time.Duration {
	s := &t.spans[id-1]
	s.End, s.Items = int64(time.Since(t.t0)), items
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, pass, items int, fn func()) time.Duration {
	id := t.begin(name, parent, pass)
	fn()
	return t.end(id, items)
}

// self is a span's duration minus the part its child spans cover.
func (t *tracer) self(id int) time.Duration {
	s := t.spans[id-1]
	d := s.End - s.Start
	for _, c := range t.spans[id:] { // children are always opened later
		if c.Parent == id {
			d -= c.End - c.Start
		}
	}
	return time.Duration(d)
}

// children returns the durations of a span's children with the given name.
func (t *tracer) children(id int, name string) []time.Duration {
	var out []time.Duration
	for _, c := range t.spans[id:] {
		if c.Parent == id && c.Name == name {
			out = append(out, time.Duration(c.End-c.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// ticker reproduces pipeline.Runner's auto-tick rule for hand-driven
// replays: the first packet arms the next 1 s capture-clock boundary, and
// a packet at or past it yields one tick at the newest boundary crossed.
type ticker struct {
	next  float64
	armed bool
}

func (t *ticker) crossed(now float64) (boundary float64, ok bool) {
	if !t.armed {
		t.next, t.armed = now+1, true
		return 0, false
	}
	if now < t.next {
		return 0, false
	}
	boundary = t.next + math.Floor(now-t.next)
	t.next = boundary + 1
	return boundary, true
}

// feedChunk is the span granularity of a traced engine pass.
const feedChunk = 256

// driveOpts instruments a hand-driven replay.
type driveOpts struct {
	clock  *float64 // set to the newest packet time handed to the stream
	tr     *tracer  // when set, one "pipeline.feed_chunk" span per feedChunk packets
	parent int
	pass   int
}

// drive replays packets into a stream the way Runner.Run does — tick at
// the crossed boundary, then feed — and closes it. feed is the time the
// feeder spent in Feed/Tick (blocking included), total adds Close.
func drive(s pipeline.Stream, packets []netflow.Packet, o driveOpts) (feed, total time.Duration) {
	var tk ticker
	start := time.Now()
	for lo := 0; lo < len(packets); lo += feedChunk {
		hi := lo + feedChunk
		if hi > len(packets) {
			hi = len(packets)
		}
		id := 0
		if o.tr != nil {
			id = o.tr.begin("pipeline.feed_chunk", o.parent, o.pass)
		}
		for i := lo; i < hi; i++ {
			p := &packets[i]
			if o.clock != nil {
				*o.clock = p.Time
			}
			if b, ok := tk.crossed(p.Time); ok {
				s.Tick(b)
			}
			s.Feed(*p)
		}
		if o.tr != nil {
			o.tr.end(id, hi-lo)
		}
	}
	feed = time.Since(start)
	s.Close()
	return feed, time.Since(start)
}
