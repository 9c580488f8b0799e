package pipeline

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"cyberhd/internal/telemetry"
)

// AlertSink consumes the non-benign verdicts of a serving engine — the
// egress half of the serving runtime. Engines deliver serialized and in
// verdict order (per shard for Sharded), after any Config.OnAlert
// callback. A sink must not call back into the engine's Feed, Tick, Flush
// or Close.
type AlertSink interface {
	// Consume receives one alert. Calls are serialized by the engine,
	// and a.Flow is valid only until Consume returns.
	Consume(a Alert)
}

// Every concrete sink satisfies AlertSink.
var (
	_ AlertSink = SinkFunc(nil)
	_ AlertSink = (*JSONLSink)(nil)
	_ AlertSink = (*RateLimitSink)(nil)
)

// SinkFunc adapts a plain function to an AlertSink.
type SinkFunc func(Alert)

// Consume calls the function.
func (f SinkFunc) Consume(a Alert) { f(a) }

// AlertRecord is the JSON shape JSONLSink writes: the alert's verdict
// plus the flow identity and summary statistics a downstream consumer
// (SIEM, notebook, jq) needs, without the full feature vector. A NaN or
// infinite Time, Bytes or Duration, which no JSON number can carry, is
// written as null.
type AlertRecord struct {
	// Time is the flow's last-packet time in capture seconds.
	Time float64 `json:"time"`
	// Class is the predicted class index; ClassName its human name.
	Class int `json:"class"`
	// ClassName is the predicted class's human name.
	ClassName string `json:"class_name"`
	// SrcIP and SrcPort identify the flow initiator.
	SrcIP string `json:"src_ip"`
	// SrcPort is the initiator's transport port.
	SrcPort uint16 `json:"src_port"`
	// DstIP and DstPort identify the responder.
	DstIP string `json:"dst_ip"`
	// DstPort is the responder's transport port.
	DstPort uint16 `json:"dst_port"`
	// Proto is the transport protocol name.
	Proto string `json:"proto"`
	// Packets and Bytes are bidirectional flow totals.
	Packets int `json:"packets"`
	// Bytes is the bidirectional byte total.
	Bytes float64 `json:"bytes"`
	// Duration is the flow duration in seconds.
	Duration float64 `json:"duration"`
}

// JSONLSink writes one JSON object per alert (JSON Lines) to a writer —
// the wire format of AlertRecord, byte for byte what encoding/json writes
// for it (FuzzJSONLSink pins the equality). Each line reaches the writer
// in its own Write, so a line-buffered consumer sees every alert at once.
// Writes are serialized by the sink's own lock, so one JSONLSink may fan
// in from several engines; the first write error latches and suppresses
// further output (check Err after Close of the stream).
type JSONLSink struct {
	mu   sync.Mutex
	w    io.Writer
	line []byte // reused line buffer
	err  error
}

// NewJSONLSink writes alert records to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Consume encodes one alert as a JSON line.
func (s *JSONLSink) Consume(a Alert) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.line = appendAlert(s.line[:0], a)
	_, s.err = s.w.Write(s.line)
}

// appendAlert appends the alert's AlertRecord as one JSON line, keys in
// the struct's order and the flow initiator as src.
func appendAlert(b []byte, a Alert) []byte {
	f := a.Flow
	src, dst := f.Key.IPA, f.Key.IPB
	sp, dp := f.Key.PortA, f.Key.PortB
	if f.InitSrcIP != src || f.InitSrcPort != sp {
		src, dst = dst, src
		sp, dp = dp, sp
	}
	b = append(b, `{"time":`...)
	b = appendFloat(b, a.Time)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(a.Class), 10)
	b = append(b, `,"class_name":`...)
	b = appendString(b, a.ClassName)
	b = append(b, `,"src_ip":"`...)
	b = src.AppendTo(b)
	b = append(b, `","src_port":`...)
	b = strconv.AppendUint(b, uint64(sp), 10)
	b = append(b, `,"dst_ip":"`...)
	b = dst.AppendTo(b)
	b = append(b, `","dst_port":`...)
	b = strconv.AppendUint(b, uint64(dp), 10)
	b = append(b, `,"proto":`...)
	b = appendString(b, f.Key.Proto.String())
	b = append(b, `,"packets":`...)
	b = strconv.AppendInt(b, int64(f.TotalPackets()), 10)
	b = append(b, `,"bytes":`...)
	b = appendFloat(b, f.TotalBytes())
	b = append(b, `,"duration":`...)
	b = appendFloat(b, f.Duration())
	return append(b, "}\n"...)
}

// appendFloat appends v as encoding/json writes a float64 — shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 on, "e-07"
// shortened to "e-7" — and null for NaN or ±Inf, which no JSON number
// can carry. A nonzero integer below 1e15 (below 2^53, so exact) takes
// the integer formatter, which writes the same digits.
func appendFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return append(b, "null"...)
	case v != 0 && abs < 1e15 && v == math.Trunc(v):
		return strconv.AppendInt(b, int64(v), 10)
	case v != 0 && (abs < 1e-6 || abs >= 1e21):
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied between quotes; anything else goes through
// encoding/json, whose HTML, U+2028/U+2029 and invalid-UTF-8 escaping
// the line must repeat.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RateLimitSink forwards at most Burst alerts per class per Window of
// capture time to an inner sink, absorbing alert floods (a DoS that
// triggers ten thousand identical verdicts should page once, not ten
// thousand times). Suppressed alerts are counted, and each window's first
// delivery after suppression carries no special marking — consumers
// needing totals read Suppressed, or the engine's telemetry snapshot
// (engines wire their collector into any RateLimitSink in Config.Sinks
// at build time, so suppression shows up on /metrics too).
//
// Windows are anchored at the first alert that opens them and advance on
// finite capture time (Alert.Time) only: a NaN or ±Inf alert time counts
// against its class's open window, and a window it opened gives way to the
// next finite alert's. Alert times need not be monotonic — sharded
// interleaving can deliver an earlier-capture-time alert after a window
// opened at a later time; such an alert counts against the already-open
// window (it never reopens an older one), pinned by
// TestRateLimitSinkNonMonotonicTimes.
type RateLimitSink struct {
	inner  AlertSink
	burst  int
	window float64

	mu         sync.Mutex
	windows    map[int]*limitWindow
	suppressed int
	tel        *telemetry.Collector
}

// limitWindow tracks one class's current window.
type limitWindow struct {
	start float64
	sent  int
}

// NewRateLimitSink caps delivery at burst alerts per class per window
// capture-seconds. burst < 1 is treated as 1; window <= 0 selects 60 s.
func NewRateLimitSink(inner AlertSink, burst int, window float64) *RateLimitSink {
	burst = max(burst, 1)
	if window <= 0 {
		window = 60
	}
	return &RateLimitSink{
		inner:   inner,
		burst:   burst,
		window:  window,
		windows: make(map[int]*limitWindow),
	}
}

// Consume forwards the alert unless its class already used up the current
// window's burst.
func (s *RateLimitSink) Consume(a Alert) {
	s.mu.Lock()
	w, ok := s.windows[a.Class]
	if !ok || finite(a.Time) && (!finite(w.start) || a.Time-w.start >= s.window) {
		w = &limitWindow{start: a.Time}
		s.windows[a.Class] = w
	}
	if w.sent >= s.burst {
		s.suppressed++
		tel := s.tel
		s.mu.Unlock()
		if tel != nil {
			tel.AddSuppressed(1)
		}
		return
	}
	w.sent++
	s.mu.Unlock()
	// Deliver outside the lock: the engine already serializes Consume, and
	// holding no lock means an inner sink may itself be shared.
	s.inner.Consume(a)
}

// Suppressed returns how many alerts rate limiting dropped so far.
func (s *RateLimitSink) Suppressed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suppressed
}

// attachTelemetry mirrors future suppressions into an engine's collector.
// Engines call this at build time for every RateLimitSink in Config.Sinks;
// a sink shared across engines reports into the last collector attached.
func (s *RateLimitSink) attachTelemetry(tel *telemetry.Collector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = tel
}
