// Command nidsgen synthesizes labeled network traffic and flow-feature
// datasets from the packet-level simulator.
//
// Usage:
//
//	nidsgen -sessions 5000 -out flows.csv            # CIC-2017-style flow CSV
//	nidsgen -sessions 5000 -mix benign=0.9,dos=0.1   # custom class mix
//	nidsgen -sessions 1000 -stats                    # print capture statistics only
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/traffic"
)

func main() {
	sessions := flag.Int("sessions", 2000, "number of traffic sessions")
	seed := flag.Uint64("seed", 42, "random seed")
	out := flag.String("out", "", "output flow-feature CSV path")
	capture := flag.String("capture", "", "also write the raw packet log (binary capture) to this path (generation only)")
	pcapOut := flag.String("pcap", "", "also write the traffic as a classic PCAP (nanosecond Ethernet) to this path (generation only; timestamps round to the nanosecond grid so capture and pcap replay identically)")
	v6Frac := flag.Float64("v6", 0, "rewrite this fraction of generated flows into an IPv6 site (both endpoints embedded in 2001:db8::/32, deterministic per flow)")
	vlanID := flag.Int("vlan", 0, "tag every generated packet with this 802.1Q VLAN ID (1-4094)")
	replay := flag.String("replay", "", "read packets from a capture, PCAP or pcapng file instead of generating — sniffed by magic, streamed in O(1) memory (replayed flows are unlabeled-benign)")
	mixFlag := flag.String("mix", "", "class mix, e.g. benign=0.8,dos=0.1,portscan=0.1")
	stats := flag.Bool("stats", false, "print capture statistics")
	flag.Parse()

	if *v6Frac < 0 || *v6Frac > 1 {
		fmt.Fprintln(os.Stderr, "nidsgen: -v6 must be a fraction in [0,1]")
		os.Exit(1)
	}
	if *vlanID < 0 || *vlanID > 4094 {
		fmt.Fprintln(os.Stderr, "nidsgen: -vlan must be a 802.1Q VLAN ID in 1..4094 (0 = untagged)")
		os.Exit(1)
	}
	cfg := traffic.Config{Sessions: *sessions, Seed: *seed}
	if *mixFlag != "" {
		mix, err := parseMix(*mixFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nidsgen:", err)
			os.Exit(1)
		}
		cfg.Mix = mix
	}
	var ds *datasets.Dataset
	var nPackets int
	var lastTime float64
	if *replay != "" {
		if *capture != "" || *pcapOut != "" || *v6Frac > 0 || *vlanID > 0 {
			fmt.Fprintln(os.Stderr, "nidsgen: -capture, -pcap, -v6 and -vlan require generation (replay streams the file, it does not rewrite it)")
			os.Exit(1)
		}
		// Stream the file record-by-record — a multi-gigabyte log
		// assembles into flows without ever living in memory. Replayed
		// captures carry no ground truth; every flow is labeled benign so
		// the feature table is still usable (e.g. for inference runs).
		cf, err := netflow.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nidsgen:", err)
			os.Exit(1)
		}
		defer cf.Close()
		tap := newTapSource(cf)
		ds, err = datasets.FromSource("nidsgen", tap, nil, traffic.LabelNames(),
			func(l traffic.Label) int { return int(l) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "nidsgen:", err)
			os.Exit(1)
		}
		nPackets, lastTime = tap.n, tap.last
		if n := cf.Skipped(); n > 0 {
			fmt.Fprintf(os.Stderr, "replay: skipped %d frames outside the decode stack\n", n)
		}
	} else {
		stream := traffic.Generate(cfg)
		rewriteTraffic(stream.Packets, *v6Frac, uint16(*vlanID), *pcapOut != "")
		ds = datasets.FromStream("nidsgen", stream, traffic.LabelNames(),
			func(l traffic.Label) int { return int(l) })
		nPackets = len(stream.Packets)
		if nPackets > 0 {
			lastTime = stream.Packets[nPackets-1].Time
		}
		if *capture != "" {
			if err := netflow.SaveCapture(*capture, stream.Packets); err != nil {
				fmt.Fprintln(os.Stderr, "nidsgen:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote capture %s: %d packets\n", *capture, nPackets)
		}
		if *pcapOut != "" {
			if err := writePCAPFile(*pcapOut, stream.Packets); err != nil {
				fmt.Fprintln(os.Stderr, "nidsgen:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote pcap %s: %d packets\n", *pcapOut, nPackets)
		}
	}

	if *stats || *out == "" {
		printStats(nPackets, lastTime, ds)
	}
	if *out != "" {
		if err := datasets.SaveCSV(*out, ds); err != nil {
			fmt.Fprintln(os.Stderr, "nidsgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d flows × %d features\n", *out, ds.Len(), ds.NumFeatures())
	}
}

// writePCAPFile writes packets as a classic nanosecond-resolution
// Ethernet PCAP — the decode stack reads it back bit-identically.
func writePCAPFile(path string, packets []netflow.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := netflow.WritePCAP(f, packets); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rewriteTraffic applies the generator's address-plane knobs in place:
// a deterministic per-flow IPv6 rewrite (both endpoints move together so
// no packet mixes families), an 802.1Q tag, and — when a PCAP is being
// written — rounding timestamps to the nanosecond grid so the capture
// and the pcap replay bit-identically.
func rewriteTraffic(packets []netflow.Packet, v6Frac float64, vlan uint16, forPCAP bool) {
	threshold := uint64(v6Frac * (1 << 16))
	for i := range packets {
		p := &packets[i]
		if threshold > 0 && flowElect(p.SrcIP, p.DstIP) < threshold {
			p.SrcIP, p.DstIP = toV6Site(p.SrcIP), toV6Site(p.DstIP)
			// The IPv4 header (20 B) grows to the fixed IPv6 header (40 B),
			// in both the header accounting and the on-wire packet size.
			p.HeaderLen += 20
			p.Length += 20
		}
		if vlan > 0 {
			p.VLAN = vlan
		}
		if forPCAP {
			p.Time = netflow.RoundToNanos(p.Time)
		}
	}
}

// flowElect hashes the unordered endpoint pair into [0, 1<<16) — the
// same value for both directions, so every packet of a flow lands on
// the same side of the -v6 threshold.
func flowElect(src, dst netflow.Addr) uint64 {
	a, b := src.V4(), dst.V4()
	if b < a {
		a, b = b, a
	}
	h := uint64(0xcbf29ce484222325)
	for _, v := range [...]uint32{a, b} {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 0x100000001b3
		}
	}
	return h % (1 << 16)
}

// toV6Site embeds a v4 host in the 2001:db8::/32 documentation site.
func toV6Site(a netflow.Addr) netflow.Addr {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	v := a.V4()
	b[12], b[13], b[14], b[15] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return netflow.AddrFrom16(b)
}

// tapSource forwards a PacketSource while counting packets and tracking
// the last capture timestamp, so replay statistics don't require holding
// the packet log in memory. A long replay reports progress to stderr
// every few wall-clock seconds (the clock is sampled every 64 Ki packets
// to keep the per-packet cost at one counter increment).
type tapSource struct {
	src     netflow.PacketSource
	n       int
	last    float64
	started time.Time
	nextAt  time.Time
}

// progressEvery is the wall-clock cadence of replay progress lines.
const progressEvery = 5 * time.Second

// newTapSource wraps src with counting and periodic stderr progress.
func newTapSource(src netflow.PacketSource) *tapSource {
	now := time.Now()
	return &tapSource{src: src, started: now, nextAt: now.Add(progressEvery)}
}

// Next delegates to the wrapped source, recording count and last time.
func (t *tapSource) Next(p *netflow.Packet) error {
	err := t.src.Next(p)
	if err == nil {
		t.n++
		t.last = p.Time
		if t.n&0xFFFF == 0 {
			if now := time.Now(); now.After(t.nextAt) {
				elapsed := now.Sub(t.started).Seconds()
				fmt.Fprintf(os.Stderr, "replay: %d packets, capture t=%.1fs (%.0f pkt/s)\n",
					t.n, t.last, float64(t.n)/elapsed)
				t.nextAt = now.Add(progressEvery)
			}
		}
	}
	return err
}

func parseMix(s string) (map[traffic.Label]float64, error) {
	byName := map[string]traffic.Label{}
	for i, n := range traffic.LabelNames() {
		byName[n] = traffic.Label(i)
	}
	mix := map[traffic.Label]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q", part)
		}
		label, ok := byName[strings.TrimSpace(kv[0])]
		if !ok {
			return nil, fmt.Errorf("unknown label %q (want one of %v)", kv[0], traffic.LabelNames())
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight %q", kv[1])
		}
		mix[label] = w
	}
	return mix, nil
}

func printStats(packets int, lastTime float64, ds *datasets.Dataset) {
	fmt.Printf("packets: %d   flows: %d   features: %d\n",
		packets, ds.Len(), ds.NumFeatures())
	counts := ds.ClassCounts()
	for i, name := range ds.ClassNames {
		if counts[i] > 0 {
			fmt.Printf("  %-14s %6d flows (%5.1f%%)\n", name, counts[i],
				100*float64(counts[i])/float64(ds.Len()))
		}
	}
	if packets > 0 && lastTime > 0 {
		fmt.Printf("capture window: %.1f s   mean rate: %.0f pkt/s\n",
			lastTime, float64(packets)/lastTime)
	}
}
