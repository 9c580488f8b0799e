package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"cyberhd/internal/datasets"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
)

// bitsModel derives the class from the bits of the feature vector, so a
// flow split at the wrong packet changes its verdict, not just its times.
type bitsModel struct{}

func (bitsModel) Predict(x []float32) int {
	var h uint32
	for _, v := range x {
		h = h*31 + math.Float32bits(v)
	}
	return int(h>>7) & 1
}

func (m bitsModel) PredictBatchInto(x *hdc.Matrix, out []int) { predictRows(m.Predict, x, out) }

// chunkOp is one step of a hand-driven replay.
type chunkOp struct {
	kind msgKind // msgPackets feeds pkt; msgTick and msgFlush are the calls
	pkt  netflow.Packet
	tick float64
}

// chunkReplay builds a feed order in three phases — ended by a tick a
// thousand seconds ahead of the packet clock, by a flush, and by the
// caller's Close — in which shard i of shards receives exactly
// phases[ph][i] packets in phase ph. Each shard's packets are eight flows
// at a time, interleaved packet by packet, so the tick and the flush cut
// through flows in progress and split them: applying either out of order
// with the packets around it changes the verdicts. Shards take turns;
// timestamps strictly increase.
func chunkReplay(shards int, phases [3][]int) []chunkOp {
	perShard := make([][]netflow.Packet, shards)
	need := make([]int, shards)
	for _, counts := range phases {
		for i, n := range counts {
			need[i] += n
		}
	}
	for port, filled := uint16(1), 0; filled < shards; port++ {
		p := tcpPkt(0x0a000001, 0x0a000002, port, 443, 0, 0)
		i := 0
		if shards > 1 {
			i = int(p.ShardKey() % uint64(shards))
		}
		if len(perShard[i]) > need[i] {
			continue
		}
		for k := 0; k < 4; k++ { // four packets per flow
			perShard[i] = append(perShard[i], p)
		}
		if len(perShard[i]) > need[i] {
			filled++
		}
	}
	for _, pkts := range perShard {
		// Within each window of eight flows, packet k of every flow comes
		// before packet k+1 of any.
		for lo := 0; lo < len(pkts); lo += 32 {
			window := pkts[lo:min(lo+32, len(pkts))]
			byRound := make([]netflow.Packet, 0, len(window))
			for k := 0; k < 4; k++ {
				for j := k; j < len(window); j += 4 {
					byRound = append(byRound, window[j])
				}
			}
			copy(window, byRound)
		}
	}
	var ops []chunkOp
	now := 0.0
	for ph, counts := range phases {
		left := append([]int(nil), counts...)
		for fed := true; fed; {
			fed = false
			for i := range left {
				if left[i] == 0 {
					continue
				}
				left[i]--
				p := perShard[i][0]
				perShard[i] = perShard[i][1:]
				now += 1e-3
				p.Time = now
				ops = append(ops, chunkOp{pkt: p})
				fed = true
			}
		}
		switch ph {
		case 0:
			ops = append(ops, chunkOp{kind: msgTick, tick: now + 1000})
		case 1:
			ops = append(ops, chunkOp{kind: msgFlush})
		}
	}
	return ops
}

// TestShardedChunkBoundaries is the differential pin of the chunked
// handoff: for every chunk size a shard buffer selects and every shard
// count, per-shard packet runs that stop one short of a chunk boundary, on
// it and one past it — before a tick, before a flush and before Close, so
// each finds open chunks on some shards only — give the alert multiset and
// Stats of a hand-driven synchronous Engine, and every admitted packet is
// counted.
func TestShardedChunkBoundaries(t *testing.T) {
	cfg := fastCfg(bitsModel{})
	cfg.Normalizer = &datasets.Normalizer{
		Mean:   make([]float32, netflow.NumFeatures),
		InvStd: make([]float32, netflow.NumFeatures),
	}
	for i := range cfg.Normalizer.InvStd {
		cfg.Normalizer.InvStd[i] = 1
	}
	type verdict struct {
		key   netflow.FlowKey
		class int
		last  float64
		pkts  int
	}
	collect := func(into map[verdict]int) func(Alert) {
		return func(a Alert) {
			into[verdict{a.Flow.Key, a.Class, a.Flow.LastTime, a.Flow.TotalPackets()}]++
		}
	}
	for _, buffer := range []int{1, 4, 64, 0} {
		for _, shards := range []int{1, 2, 3, 4} {
			for rot := 0; rot < 3; rot++ {
				t.Run(fmt.Sprintf("buffer%d/shards%d/rot%d", buffer, shards, rot), func(t *testing.T) {
					got := map[verdict]int{}
					scfg := cfg
					scfg.Shards = shards
					scfg.OnAlert = collect(got)
					s, err := newSharded(scfg, buffer)
					if err != nil {
						t.Fatal(err)
					}
					if _, capacity := s.occupancy(); buffer > 0 && capacity > buffer {
						t.Fatalf("occupancy capacity %d packets exceeds the buffer %d", capacity, buffer)
					}
					// A chunk less one, exactly one, one plus one — rotated so
					// every shard meets every case in every phase.
					var phases [3][]int
					for ph := range phases {
						phases[ph] = make([]int, shards)
						for i := range phases[ph] {
							phases[ph][i] = s.chunk - 1 + (i+rot+ph)%3
						}
					}
					ops := chunkReplay(shards, phases)

					want := map[verdict]int{}
					ecfg := cfg
					ecfg.OnAlert = collect(want)
					eng, err := New(ecfg)
					if err != nil {
						t.Fatal(err)
					}
					// checkOpen pins what a phase leaves in each open chunk: a
					// run of chunk-1 stays open, chunk went out whole, chunk+1
					// left one packet behind. The feeder is this goroutine, so
					// open is stable here.
					phase := 0
					checkOpen := func() {
						t.Helper()
						for i := range s.shards {
							if got, want := len(s.shards[i].open), phases[phase][i]%s.chunk; got != want {
								t.Fatalf("phase %d shard %d: %d packets in the open chunk after %d fed, want %d",
									phase, i, got, phases[phase][i], want)
							}
						}
						phase++
					}
					admitted := 0
					for i, op := range ops {
						switch op.kind {
						case msgTick:
							checkOpen()
							eng.Tick(op.tick)
							s.Tick(op.tick)
						case msgFlush:
							checkOpen()
							eng.Flush()
							s.Flush()
						default:
							eng.Feed(op.pkt)
							// All three admission variants share admit; a
							// refusal (tiny buffers do refuse) is retried
							// losslessly, so every packet ends up admitted once.
							ok := false
							switch i % 3 {
							case 0:
								ok = s.FeedWithin(op.pkt, 0)
							case 1:
								ok = s.FeedWithin(op.pkt, time.Millisecond)
							}
							if !ok {
								s.Feed(op.pkt)
							}
							admitted++
						}
					}
					checkOpen()
					eng.Close()
					s.Close()

					if len(want) == 0 {
						t.Fatal("the reference engine raised no alerts; the comparison is vacuous")
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("alert multiset differs from the synchronous engine: %d distinct verdicts, want %d", len(got), len(want))
					}
					if gs, ws := s.Stats(), eng.Stats(); !reflect.DeepEqual(gs, ws) {
						t.Fatalf("stats %+v, synchronous engine %+v", gs, ws)
					}
					if p := s.Stats().Packets; p != admitted {
						t.Fatalf("Packets = %d, admitted %d", p, admitted)
					}
					if n, _ := s.occupancy(); n != 0 {
						t.Fatalf("occupancy reports %d packets waiting after Close", n)
					}
				})
			}
		}
	}
}

// TestShardedFeedersWaitTogether puts several feeders — blocking and
// bounded-wait — and a ticker behind shard channels that are nearly always
// full, so they wait for slots side by side and hand the shard mutex back
// and forth while they do: every feeder must get through and every packet
// must be counted once. Run under -race it is the regression test of the
// wait-outside-the-lock path.
func TestShardedFeedersWaitTogether(t *testing.T) {
	cfg := fastCfg(slowModel{delay: 5 * time.Microsecond})
	cfg.Shards = 2
	s, err := newSharded(cfg, 8) // chunks of 2 packets, 3 channel slots
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.shards {
		s.shards[i].eng.asm.IdleTimeout = 1e-3 // every tick completes flows, so the shards stay busy
	}
	const feeders, perFeeder = 4, 3000
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				at := float64(i) * 1e-2
				p := tcpPkt(uint32(g+1), 0x0a000002, uint16(i%500), 443, at, 0)
				if i%3 == 0 {
					for !s.FeedWithin(p, 50*time.Microsecond) {
					}
				} else {
					s.Feed(p)
				}
				if g == 0 && i%16 == 0 {
					s.Tick(at)
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	if got := s.Stats().Packets; got != feeders*perFeeder {
		t.Fatalf("Packets = %d, fed %d", got, feeders*perFeeder)
	}
}
