package netflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// PacketSource yields a time-ordered packet stream, one packet per call —
// the ingest half of the serving runtime. A source is consumed exactly
// once, front to back; packets must come out in capture-time order, the
// same contract the flow assembler requires.
//
// Concrete sources: SliceSource (in-memory captures and generated
// traffic), CaptureScanner and PCAPSource (the binary capture format
// and PCAP/pcapng, streamed in O(1) memory; Open picks between them for
// a file on disk).
type PacketSource interface {
	// Next stores the next packet into *p and returns nil, or returns
	// io.EOF when the stream ends (leaving *p unspecified), or another
	// error when the source fails. After a non-nil return the source is
	// exhausted and must not be polled again.
	Next(p *Packet) error
}

// Every concrete source satisfies PacketSource.
var (
	_ PacketSource = (*SliceSource)(nil)
	_ PacketSource = (*CaptureScanner)(nil)
	_ PacketSource = (*File)(nil)
)

// SliceSource replays an in-memory packet slice. The zero value is an
// empty source; the slice is read, never mutated.
type SliceSource struct {
	packets []Packet
	next    int
}

// NewSliceSource returns a source over packets (not copied — the caller
// must not mutate them while the source is being drained).
func NewSliceSource(packets []Packet) *SliceSource {
	return &SliceSource{packets: packets}
}

// Next copies out the next packet, or returns io.EOF past the end.
func (s *SliceSource) Next(p *Packet) error {
	if s.next >= len(s.packets) {
		return io.EOF
	}
	*p = s.packets[s.next]
	s.next++
	return nil
}

// Remaining returns how many packets have not been read yet.
func (s *SliceSource) Remaining() int { return len(s.packets) - s.next }

// File is an open on-disk packet log — internal capture, classic PCAP or
// pcapng — streamed as a PacketSource in O(1) memory. Close it when done
// (the runner does not own file handles).
type File struct {
	PacketSource
	f *os.File
}

// Open opens the packet log at path for streaming replay, choosing the
// reader from the file's first four bytes: the internal capture magic
// selects NewCaptureScanner (v1, v2 and sentinel-count captures), and
// everything else goes to NewPCAPSource, which takes classic PCAP in
// both magics and byte orders and pcapng, and rejects the rest naming
// the bytes it saw. Both read through the one buffered reader the sniff
// used, so no byte is read twice: it is sized for NewPCAPSource, which
// then keeps it rather than wrapping it again.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, maxPCAPBlock)
	var src PacketSource
	if magic, _ := br.Peek(4); len(magic) == 4 && binary.LittleEndian.Uint32(magic) == captureMagic {
		src, err = NewCaptureScanner(br)
	} else {
		src, err = NewPCAPSource(br)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{PacketSource: src, f: f}, nil
}

// Skipped returns how many frames the PCAP decode stack passed over
// (PCAPSource.Skipped); an internal capture carries only decoded
// packets, so it reports 0.
func (f *File) Skipped() int {
	if s, ok := f.PacketSource.(*PCAPSource); ok {
		return s.Skipped()
	}
	return 0
}

// Close releases the underlying file.
func (f *File) Close() error { return f.f.Close() }
