package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// relay is a byte-counting TCP forwarder the traced run puts between the
// cluster client and one worker, so wire bytes per packet are measured
// without touching the program. Loopback only.
type relay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64 // both directions
	wg     sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// accept forwards connections until close stops the listener.
func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		// Whichever side ends first has already had everything it sent
		// forwarded, so both connections close together.
		r.wg.Add(2)
		pipe := func(dst, src net.Conn) {
			defer r.wg.Done()
			n, _ := io.Copy(dst, src) // a copy error is the other side closing
			r.bytes.Add(n)
			dst.Close()
			src.Close()
		}
		go pipe(up, down)
		go pipe(down, up)
	}
}

// close stops accepting, waits for every forwarded connection to end and
// returns the bytes forwarded.
func (r *relay) close() int64 {
	r.ln.Close()
	r.wg.Wait()
	return r.bytes.Load()
}
