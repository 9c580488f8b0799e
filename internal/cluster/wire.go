// Package cluster scales the serving runtime past one process: an ingest
// node partitions a packet stream by flow hash across N detector workers
// over TCP and merges their alert and telemetry streams back, with model
// snapshots replicated to every worker through the control-plane gates.
//
// The layer is deliberately thin. A worker session drives an ordinary
// pipeline engine; the ingest side implements pipeline.Stream, so the
// standard Runner replays any PacketSource into a cluster exactly as it
// would into a local engine. Partitioning follows the sharded engine's
// modulus contract (FlowKey.Hash % N — both directions of a flow land on
// one worker), ticks broadcast to every worker before the packet that
// crossed the boundary (the Runner's collapsed-boundary semantics carried
// over the wire), and alert merging serializes per-worker streams exactly
// like the sharded engine serializes per-shard callbacks. Under those
// three contracts cluster verdicts over a capture are bit-identical to a
// single-process engine over the same capture — pinned by the cluster
// cells of the root package's TestContractMatrix.
//
// The wire format is a compact length-prefixed binary framing with the
// same hostile-input discipline as the model snapshot codec
// (internal/core/snapshot.go): every frame carries a CRC32 over its
// payload, declared lengths are validated against per-type caps before
// any allocation, and truncated, corrupt or oversized input errors —
// never panics, never unbounded allocation (pinned by FuzzDecodeFrame).
package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// wireMagic opens each direction of a cluster connection. Version-suffixed
// like the snapshot magic: a future incompatible framing bumps the digit
// and old peers reject the session at the first eight bytes.
const wireMagic = "CYHDWIR1"

// frameType tags one wire frame.
type frameType uint8

// Wire frame types. Ingest→worker: hello, snapshot, packets, tick, flush,
// bye. Worker→ingest: ack, alert, telemetry, bye. Types 4 and 10 carried
// one packet record per frame under hello protocol 1; they are reserved,
// not reused, and a peer that sends one is rejected as an unknown type.
const (
	frameHello     frameType = 1  // gob helloState: session configuration
	frameSnapshot  frameType = 2  // v2 model snapshot bytes, verbatim
	frameAck       frameType = 3  // gob ackState: snapshot/hello outcome
	frameTick      frameType = 5  // capture-clock tick (float64 bits)
	frameFlush     frameType = 6  // flush all open flows (empty)
	frameBye       frameType = 7  // end of stream (empty)
	frameAlert     frameType = 8  // one narrow (v1) alert record: 49 bytes, IPv4 flows
	frameTelemetry frameType = 9  // settled flag byte + the next message of the session's gob telemetry stream
	frameAlert2    frameType = 11 // one wide (v2) alert record: 85 bytes, 16-byte addresses
	framePackets   frameType = 12 // a run of width-tagged capture packet records: tag byte + 32 or 60 bytes each
)

// frameHeaderSize is the fixed frame header: type byte, payload length
// (uint32 LE), payload CRC32-IEEE (uint32 LE).
const frameHeaderSize = 1 + 4 + 4

// Payload size caps, enforced before any allocation. Snapshot frames
// carry core.SaveSnapshot output, capped like the snapshot decoder's own
// body cap (1<<28) plus header slack; gob frames get generous fixed caps
// far above their real sizes.
const (
	maxHelloPayload     = 1 << 20
	maxSnapshotPayload  = 1<<28 + 256
	maxAckPayload       = 1 << 16
	maxTelemetryPayload = 1 << 20
	maxPacketsPayload   = 64 << 10 // the reader's retained buffer (reuseCap): ~1985 narrow records
	tickPayloadSize     = 8
	alertRecordSize     = 8 + 8 + 4 + 4 + 2 + 2 + 1 + 2 + 4 + 2 + 4 + 8    // 49 bytes
	alertRecordSizeV2   = 8 + 8 + 16 + 16 + 2 + 2 + 1 + 2 + 16 + 2 + 4 + 8 // 85 bytes
)

// payloadBounds returns the [min, max] payload size of a frame type, or
// ok=false for an unknown type. Fixed-size frames have min == max.
func payloadBounds(t frameType) (min, max int, ok bool) {
	switch t {
	case frameHello:
		return 0, maxHelloPayload, true
	case frameSnapshot:
		return 0, maxSnapshotPayload, true
	case frameAck:
		return 0, maxAckPayload, true
	case framePackets:
		return 1 + netflow.PacketRecordSize, maxPacketsPayload, true
	case frameTick:
		return tickPayloadSize, tickPayloadSize, true
	case frameFlush, frameBye:
		return 0, 0, true
	case frameAlert:
		return alertRecordSize, alertRecordSize, true
	case frameTelemetry:
		return 1, maxTelemetryPayload, true
	case frameAlert2:
		return alertRecordSizeV2, alertRecordSizeV2, true
	}
	return 0, 0, false
}

// writeWireMagic sends the stream preamble.
func writeWireMagic(w io.Writer) error {
	if _, err := io.WriteString(w, wireMagic); err != nil {
		return fmt.Errorf("cluster: writing magic: %w", err)
	}
	return nil
}

// readWireMagic validates the peer's stream preamble.
func readWireMagic(r io.Reader) error {
	var got [len(wireMagic)]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return fmt.Errorf("cluster: reading magic: %w", err)
	}
	if string(got[:]) != wireMagic {
		return fmt.Errorf("cluster: bad magic %q (not a cluster peer, or incompatible wire version)", got[:])
	}
	return nil
}

// frameWriter frames payloads onto a buffered stream. Not safe for
// concurrent use — callers serialize with their own mutex.
type frameWriter struct {
	w   *bufio.Writer
	hdr [frameHeaderSize]byte
	rec [alertRecordSizeV2]byte // scratch for alert records
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriterSize(w, 64<<10)}
}

// writeFrame frames one payload: header (type, length, CRC) then bytes.
// Buffered — call flush to push frames to the peer.
func (fw *frameWriter) writeFrame(t frameType, payload []byte) error {
	min, max, ok := payloadBounds(t)
	if !ok || len(payload) < min || len(payload) > max {
		return fmt.Errorf("cluster: writeFrame: type %d payload %d bytes out of bounds", t, len(payload))
	}
	fw.hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(fw.hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fw.hdr[5:], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

func (fw *frameWriter) flush() error { return fw.w.Flush() }

// Width tags of the records in a packets frame — the capture format's
// record versions.
const (
	recordNarrow = 1 // v1 record, netflow.PacketRecordSize bytes: IPv4, untagged
	recordWide   = 2 // v2 record, netflow.PacketRecordSizeV2 bytes: 16-byte addresses + VLAN
)

// maxTaggedRecord is the most one packet adds to a packets frame.
const maxTaggedRecord = 1 + netflow.PacketRecordSizeV2

// appendPacket appends p to a packets-frame payload as one tagged capture
// record: the v1 record whenever the packet fits it (pure IPv4, untagged),
// the v2 record otherwise — the record bodies are the capture format's,
// byte for byte.
func appendPacket(payload []byte, p *netflow.Packet) []byte {
	n := len(payload)
	if p.EncodableV1() {
		payload = append(payload, make([]byte, 1+netflow.PacketRecordSize)...)
		payload[n] = recordNarrow
		netflow.EncodePacketRecord(payload[n+1:], p)
		return payload
	}
	payload = append(payload, make([]byte, 1+netflow.PacketRecordSizeV2)...)
	payload[n] = recordWide
	netflow.EncodePacketRecordV2(payload[n+1:], p)
	return payload
}

// decodePackets decodes a packets frame payload into dst[:0]. Every
// record's tag and length is checked as it is reached and any failure
// returns no packets at all, so a frame is fed whole or not at all.
func decodePackets(payload []byte, dst []netflow.Packet) ([]netflow.Packet, error) {
	dst = dst[:0]
	if len(payload) == 0 {
		return nil, fmt.Errorf("cluster: empty packets frame")
	}
	for off := 0; off < len(payload); {
		size, wide := netflow.PacketRecordSize, false
		switch payload[off] {
		case recordNarrow:
		case recordWide:
			size, wide = netflow.PacketRecordSizeV2, true
		default:
			return nil, fmt.Errorf("cluster: packets frame record %d has unknown width tag %d", len(dst), payload[off])
		}
		body := payload[off+1:]
		if len(body) < size {
			return nil, fmt.Errorf("cluster: packets frame record %d truncated: %d of %d bytes", len(dst), len(body), size)
		}
		dst = append(dst, netflow.Packet{})
		if wide {
			netflow.DecodePacketRecordV2(body, &dst[len(dst)-1])
		} else {
			netflow.DecodePacketRecord(body, &dst[len(dst)-1])
		}
		off += 1 + size
	}
	return dst, nil
}

// frameReader decodes frames off a buffered stream. The returned payload
// slice is only valid until the next call. Not safe for concurrent use.
type frameReader struct {
	r   *bufio.Reader
	hdr [frameHeaderSize]byte
	buf []byte // reused for small payloads; large ones get a one-off buffer
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// reuseCap bounds how large a payload buffer the reader retains between
// frames — packets, ticks, alerts and acks all fit; a rare multi-MB
// snapshot frame is allocated once and released to the GC.
const reuseCap = 64 << 10

// next reads one frame with the snapshot decoder's hostile-input
// discipline: the declared length is validated against the type's bounds
// BEFORE any allocation, the payload is read exactly, and the CRC must
// match before the bytes are handed to any decoder. Truncation
// mid-payload surfaces as io.ErrUnexpectedEOF; a clean EOF at a frame
// boundary surfaces as io.EOF. Never panics.
func (fr *frameReader) next() (frameType, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("cluster: frame header: %w", err)
	}
	t := frameType(fr.hdr[0])
	n := binary.LittleEndian.Uint32(fr.hdr[1:])
	min, max, ok := payloadBounds(t)
	if !ok {
		return 0, nil, fmt.Errorf("cluster: unknown frame type %d", t)
	}
	if n < uint32(min) || n > uint32(max) {
		return 0, nil, fmt.Errorf("cluster: frame type %d declares %d payload bytes (bounds [%d, %d])", t, n, min, max)
	}
	payload, err := fr.readPayload(int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: frame type %d payload (%d bytes): %w", t, n, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(fr.hdr[5:]); got != want {
		return 0, nil, fmt.Errorf("cluster: frame type %d CRC mismatch (payload %08x, header %08x)", t, got, want)
	}
	return t, payload, nil
}

// readPayload reads exactly n bytes. Small payloads reuse the retained
// buffer; larger ones are read in bounded chunks so a hostile length
// prefix on a truncated stream allocates in proportion to the bytes that
// actually arrive, not to the claim.
func (fr *frameReader) readPayload(n int) ([]byte, error) {
	if n <= reuseCap {
		if cap(fr.buf) < n {
			fr.buf = make([]byte, n)
		}
		buf := fr.buf[:n]
		if _, err := io.ReadFull(fr.r, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, reuseCap)
	for len(buf) < n {
		c := n - len(buf)
		if c > reuseCap {
			c = reuseCap
		}
		off := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(fr.r, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// encodeTick renders a tick frame payload: the capture time's float64 bits.
func encodeTick(now float64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, tickPayloadSize), math.Float64bits(now))
}

// decodeTick decodes a tick frame payload.
func decodeTick(payload []byte) (float64, error) {
	if len(payload) != tickPayloadSize {
		return 0, fmt.Errorf("cluster: tick frame is %d bytes, want %d", len(payload), tickPayloadSize)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), nil
}

// helloProto is the session protocol version inside hello frames,
// separate from the stream magic so the preamble outlives protocol
// revisions: it covers the hello schema and everything the session sends
// after it. Version 2 moved packets to the multi-record packets frame and
// telemetry to one gob stream per session; a version-1 peer is turned away
// at hello, with both versions named in the ack, never mid-stream.
const helloProto = 2

// helloState is the session configuration the ingest node sends before
// any traffic: everything a worker needs to assemble a pipeline engine
// identical (snapshot aside) to the one a single-process run would build.
// gob matches fields by name and ignores ones the receiver lacks, so a
// peer whose hello has more fields interoperates as long as they are
// zero.
type helloState struct {
	Proto      uint32
	ClassNames []string
	NormMean   []float32
	NormInvStd []float32
	BatchSize  int
	Width      int
	Shards     int
}

// maxHelloClasses bounds the class list a hello may declare — far above
// any real label set, small enough that a hostile hello cannot balloon
// the worker through per-class telemetry allocations.
const maxHelloClasses = 1 << 12

// encodeHello renders the hello frame payload.
func encodeHello(h helloState) ([]byte, error) {
	h.Proto = helloProto
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&h); err != nil {
		return nil, fmt.Errorf("cluster: encoding hello: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeHello parses and validates a hello frame payload. Validation here
// is structural (counts, ranges); geometry against the model is checked
// when the snapshot arrives.
func decodeHello(payload []byte) (helloState, error) {
	var h helloState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h); err != nil {
		return helloState{}, fmt.Errorf("cluster: decoding hello: %w", err)
	}
	if h.Proto != helloProto {
		return helloState{}, fmt.Errorf("cluster: ingest node speaks session protocol %d, this worker speaks %d: run the same release on both sides", h.Proto, helloProto)
	}
	if len(h.ClassNames) == 0 || len(h.ClassNames) > maxHelloClasses {
		return helloState{}, fmt.Errorf("cluster: hello declares %d classes (bounds [1, %d])", len(h.ClassNames), maxHelloClasses)
	}
	if len(h.NormMean) != netflow.NumFeatures || len(h.NormInvStd) != netflow.NumFeatures {
		return helloState{}, fmt.Errorf("cluster: hello normalizer has %d/%d features, want %d",
			len(h.NormMean), len(h.NormInvStd), netflow.NumFeatures)
	}
	if h.BatchSize < 0 || h.BatchSize > 1<<20 {
		return helloState{}, fmt.Errorf("cluster: hello batch size %d out of range", h.BatchSize)
	}
	if h.Shards < 0 || h.Shards > 1<<10 {
		return helloState{}, fmt.Errorf("cluster: hello shard count %d out of range", h.Shards)
	}
	return h, nil
}

// ackState is a worker's answer to a hello or snapshot frame.
type ackState struct {
	OK      bool
	Version uint64 // the worker's serving model version after the operation
	Msg     string // rejection reason when !OK
}

// encodeAck renders the ack frame payload.
func encodeAck(a ackState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&a); err != nil {
		return nil, fmt.Errorf("cluster: encoding ack: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeAck parses an ack frame payload.
func decodeAck(payload []byte) (ackState, error) {
	var a ackState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&a); err != nil {
		return ackState{}, fmt.Errorf("cluster: decoding ack: %w", err)
	}
	return a, nil
}

// wireAlert is the fixed-binary alert record a worker streams back: the
// verdict identity (flow key, class, time — the bit-identity fingerprint)
// plus the flow summary fields the alert sinks render. Little-endian, one
// layout at two address widths: alertRecordSize or alertRecordSizeV2 bytes.
type wireAlert struct {
	Time        float64 // verdict time = the flow's LastTime
	FirstTime   float64
	Key         netflow.FlowKey
	Class       uint16
	InitSrcIP   netflow.Addr
	InitSrcPort uint16
	Packets     uint32 // total packets over both directions
	Bytes       float64
}

// encodableV1 reports whether the alert fits the legacy v1 record: every
// address IPv4.
func (a *wireAlert) encodableV1() bool {
	return a.Key.IPA.Is4() && a.Key.IPB.Is4() && a.InitSrcIP.Is4()
}

// encodeAlert renders an alert record into dst — the one encoder of the
// alert layout. The caller must ensure a.encodableV1() for a narrow
// record, which is byte-identical to the pre-v2 wire.
func encodeAlert(dst []byte, a *wireAlert, wide bool) {
	binary.LittleEndian.PutUint64(dst[0:], math.Float64bits(a.Time))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(a.FirstTime))
	w := a.Key.IPA.Put(dst[16:], wide)
	a.Key.IPB.Put(dst[16+w:], wide)
	b := dst[16+2*w:]
	binary.LittleEndian.PutUint16(b[0:], a.Key.PortA)
	binary.LittleEndian.PutUint16(b[2:], a.Key.PortB)
	b[4] = byte(a.Key.Proto)
	binary.LittleEndian.PutUint16(b[5:], a.Class)
	a.InitSrcIP.Put(b[7:], wide)
	b = b[7+w:]
	binary.LittleEndian.PutUint16(b[0:], a.InitSrcPort)
	binary.LittleEndian.PutUint32(b[2:], a.Packets)
	binary.LittleEndian.PutUint64(b[6:], math.Float64bits(a.Bytes))
}

// decodeAlert parses an alert frame payload; t picks the address width.
func decodeAlert(t frameType, payload []byte, a *wireAlert) error {
	wide, want := false, alertRecordSize
	if t == frameAlert2 {
		wide, want = true, alertRecordSizeV2
	}
	if len(payload) != want {
		return fmt.Errorf("cluster: alert frame type %d is %d bytes, want %d", t, len(payload), want)
	}
	*a = wireAlert{
		Time:      math.Float64frombits(binary.LittleEndian.Uint64(payload[0:])),
		FirstTime: math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
	}
	w := a.Key.IPA.Get(payload[16:], wide)
	a.Key.IPB.Get(payload[16+w:], wide)
	b := payload[16+2*w:]
	a.Key.PortA = binary.LittleEndian.Uint16(b[0:])
	a.Key.PortB = binary.LittleEndian.Uint16(b[2:])
	a.Key.Proto = netflow.Proto(b[4])
	a.Class = binary.LittleEndian.Uint16(b[5:])
	a.InitSrcIP.Get(b[7:], wide)
	b = b[7+w:]
	a.InitSrcPort = binary.LittleEndian.Uint16(b[0:])
	a.Packets = binary.LittleEndian.Uint32(b[2:])
	a.Bytes = math.Float64frombits(binary.LittleEndian.Uint64(b[6:]))
	return nil
}

// writeAlert frames one alert record, picking the v1 frame for IPv4 flows
// (byte-identical to the pre-v2 wire) and the v2 frame otherwise.
func (fw *frameWriter) writeAlert(a *wireAlert) error {
	if a.encodableV1() {
		encodeAlert(fw.rec[:alertRecordSize], a, false)
		return fw.writeFrame(frameAlert, fw.rec[:alertRecordSize])
	}
	encodeAlert(fw.rec[:alertRecordSizeV2], a, true)
	return fw.writeFrame(frameAlert2, fw.rec[:alertRecordSizeV2])
}

// Telemetry rides one gob stream per session, a message per frame: the
// worker's encoder and the ingest side's decoder live as long as the
// session, so gob compiles and sends the Snapshot type description once,
// not with every per-tick report. The frames are therefore not
// self-describing — each decodes only after every earlier one of its
// session, in order, which a single TCP stream gives for free.

// telemetryEncoder renders a session's telemetry frame payloads.
type telemetryEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

func newTelemetryEncoder() *telemetryEncoder {
	e := &telemetryEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// encode renders the next telemetry frame payload: one settled-flag byte
// (1 = the engine has drained and every counter is final) followed by the
// snapshot's gob message. The slice is valid until the next call.
func (e *telemetryEncoder) encode(s telemetry.Snapshot, settled bool) ([]byte, error) {
	e.buf.Reset()
	flag := byte(0)
	if settled {
		flag = 1
	}
	e.buf.WriteByte(flag)
	if err := e.enc.Encode(&s); err != nil {
		return nil, fmt.Errorf("cluster: encoding telemetry: %w", err)
	}
	return e.buf.Bytes(), nil
}

// telemetryDecoder parses a session's telemetry frame payloads, in order.
// After an error the gob stream is out of step and the session is over.
type telemetryDecoder struct {
	buf bytes.Buffer
	dec *gob.Decoder
}

func newTelemetryDecoder() *telemetryDecoder {
	d := &telemetryDecoder{}
	d.dec = gob.NewDecoder(&d.buf)
	return d
}

// decode parses the next telemetry frame payload.
func (d *telemetryDecoder) decode(payload []byte) (s telemetry.Snapshot, settled bool, err error) {
	if len(payload) < 1 {
		return s, false, fmt.Errorf("cluster: empty telemetry frame")
	}
	d.buf.Reset()
	d.buf.Write(payload[1:])
	if err := d.dec.Decode(&s); err != nil {
		return telemetry.Snapshot{}, false, fmt.Errorf("cluster: decoding telemetry: %w", err)
	}
	if d.buf.Len() != 0 {
		return telemetry.Snapshot{}, false, fmt.Errorf("cluster: telemetry frame has %d bytes past its snapshot", d.buf.Len())
	}
	return s, payload[0] != 0, nil
}
