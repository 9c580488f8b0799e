package cluster

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/traffic"
)

// goldenFingerprint renders one alert in the refactor-stable format the
// pre-refactor generator recorded into golden_v1_verdicts.txt:
// dotted-quad endpoints, numeric proto and class, microsecond time.
func goldenFingerprint(a pipeline.Alert) string {
	k := a.Flow.Key
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%.6f",
		k.IPA, k.IPB, k.PortA, k.PortB, uint8(k.Proto), a.Class, a.Time)
}

// TestClusterGoldenCaptureCompat is the end-to-end half of the IPv4
// compatibility contract: the golden v1 capture (written and replayed by
// the pre-refactor uint32 implementation) must produce the exact verdict
// multiset it produced then — through a single engine, a 4-shard engine,
// and a 2-worker loopback cluster.
func TestClusterGoldenCaptureCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1_verdicts.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Fields(strings.TrimSpace(string(raw)))
	if len(golden) == 0 {
		t.Fatal("no golden verdicts")
	}
	pkts, err := netflow.LoadCapture("../netflow/testdata/golden_v1.cap")
	if err != nil {
		t.Fatal(err)
	}
	m, norm, names := clusterModel(t)

	check := func(t *testing.T, alerts []string, st pipeline.Stats) {
		t.Helper()
		sort.Strings(alerts)
		if len(alerts) != len(golden) {
			t.Fatalf("%d alerts, golden %d", len(alerts), len(golden))
		}
		for i := range alerts {
			if alerts[i] != golden[i] {
				t.Fatalf("verdict %d diverged:\n  got    %s\n  golden %s", i, alerts[i], golden[i])
			}
		}
		if st.Packets != len(pkts) || st.Alerts != len(golden) {
			t.Fatalf("stats %d packets / %d alerts, golden %d / %d",
				st.Packets, st.Alerts, len(pkts), len(golden))
		}
	}
	collect := func() (func(pipeline.Alert), *[]string) {
		var mu sync.Mutex
		var alerts []string
		return func(a pipeline.Alert) {
			mu.Lock()
			alerts = append(alerts, goldenFingerprint(a))
			mu.Unlock()
		}, &alerts
	}

	t.Run("single", func(t *testing.T) {
		onAlert, alerts := collect()
		eng, err := pipeline.New(pipeline.Config{
			Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&pipeline.Runner{Stream: eng, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, *alerts, st)
	})

	t.Run("sharded-4", func(t *testing.T) {
		onAlert, alerts := collect()
		sh, err := pipeline.NewSharded(pipeline.Config{
			Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8, Shards: 4, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&pipeline.Runner{Stream: sh, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, *alerts, st)
	})

	t.Run("cluster-2", func(t *testing.T) {
		addrs := startWorkers(t, 2, WorkerConfig{})
		onAlert, alerts := collect()
		client, err := Dial(ClientConfig{
			Workers: addrs, Model: core.NewCOWModel(m),
			Normalizer: norm, ClassNames: names, BatchSize: 8, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.Runner(netflow.NewSliceSource(pkts), 1).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Err(); err != nil {
			t.Fatalf("cluster transport error: %v", err)
		}
		check(t, *alerts, st)
	})
}

// versusSingle replays pkts through (a) one local engine and (b) a
// 1-ingest + 2-worker loopback cluster — both driven by the standard
// Runner at one tick per capture second, BatchSize 8 — and fails unless
// the verdicts are bit-identical: equal sorted alert fingerprints, equal
// Stats, no transport error. It returns the reference fingerprints and
// Stats, and the client for the caller's own checks.
func versusSingle(t *testing.T, pkts []netflow.Packet) ([]string, pipeline.Stats, *Client) {
	t.Helper()
	m, norm, names := clusterModel(t)
	run := func(mk func(pipeline.Config) (pipeline.Stream, error)) ([]string, pipeline.Stats) {
		var mu sync.Mutex
		var alerts []string
		s, err := mk(pipeline.Config{
			Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8,
			OnAlert: func(a pipeline.Alert) {
				mu.Lock()
				alerts = append(alerts, goldenFingerprint(a))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&pipeline.Runner{Stream: s, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(alerts)
		return alerts, st
	}
	single, stA := run(func(c pipeline.Config) (pipeline.Stream, error) { return pipeline.New(c) })
	var client *Client
	clustered, stB := run(func(c pipeline.Config) (pipeline.Stream, error) {
		var err error
		client, err = Dial(ClientConfig{
			Workers: startWorkers(t, 2, WorkerConfig{}), Model: core.NewCOWModel(m),
			Normalizer: norm, ClassNames: names, BatchSize: c.BatchSize, OnAlert: c.OnAlert,
		})
		return client, err
	})
	if err := client.Err(); err != nil {
		t.Fatalf("cluster transport error: %v", err)
	}
	if len(single) == 0 {
		t.Fatal("reference run produced no alerts; the differential is vacuous")
	}
	if !slices.Equal(single, clustered) {
		t.Fatalf("alerts diverged: single %d, cluster %d", len(single), len(clustered))
	}
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("stats diverged:\n  single:  %+v\n  cluster: %+v", stA, stB)
	}
	return single, stA, client
}

// TestClientFeedRunMatchesFeed pins the client's FeedRun to one Feed per
// packet on a 2-worker cluster: the capture fed by hand in runs of every
// shape — empty, one packet, 2,000 packets (a full packets frame), runs
// across the ticks — gives the same Stats and, per worker, the same
// alerts in the same order.
func TestClientFeedRunMatchesFeed(t *testing.T) {
	m, norm, names := clusterModel(t)
	pkts := traffic.Generate(traffic.Config{Sessions: 400, Seed: 99}).Packets
	addrs := startWorkers(t, 2, WorkerConfig{})
	lens := []int{0, 1, 2000, 63, 64, 65, 7, 0, 300}
	drive := func(runs bool) (pipeline.Stats, [2][]string) {
		var alerts [2][]string // per worker
		c, err := Dial(ClientConfig{
			Workers: addrs, Model: core.NewCOWModel(m), Normalizer: norm, ClassNames: names, BatchSize: 8,
			OnAlert: func(a pipeline.Alert) {
				i := a.Flow.Key.Hash() % 2
				alerts[i] = append(alerts[i], goldenFingerprint(a))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := 0, 0; i < len(pkts); k++ {
			run := pkts[i:min(i+lens[k%len(lens)], len(pkts))]
			i += len(run)
			if runs {
				c.FeedRun(run)
			} else {
				for j := range run {
					c.Feed(run[j])
				}
			}
			if k%3 == 2 && len(run) > 0 {
				c.Tick(run[len(run)-1].Time)
			}
		}
		c.Close()
		if err := c.Err(); err != nil {
			t.Fatalf("cluster transport error: %v", err)
		}
		return c.Stats(), alerts
	}
	wantSt, want := drive(false)
	gotSt, got := drive(true)
	if len(want[0]) == 0 || len(want[1]) == 0 {
		t.Fatal("a worker raised no alerts; the comparison is vacuous")
	}
	if !reflect.DeepEqual(gotSt, wantSt) || !reflect.DeepEqual(got, want) {
		t.Fatalf("FeedRun %+v, %d+%d alerts; Feed %+v, %d+%d alerts",
			gotSt, len(got[0]), len(got[1]), wantSt, len(want[0]), len(want[1]))
	}
}

// TestClusterV6VLANBitIdentical drives IPv6 and VLAN-tagged flows over
// the cluster transport — the v2 packet and alert wire frames — and
// pins that a 2-worker cluster verdicts them bit-identically to one
// local engine.
func TestClusterV6VLANBitIdentical(t *testing.T) {
	// Rewrite half the hosts into a v6 site (the v4 address embedded in
	// 2001:db8::/32) and tag a third of the packets — a mixed workload
	// where flows keep their pairing across the address rewrite.
	toV6 := func(a netflow.Addr) netflow.Addr {
		if !a.Is4() || a.V4()%2 == 0 {
			return a
		}
		b := [16]byte{0x20, 0x01, 0x0d, 0xb8}
		copy(b[12:], a[12:16])
		return netflow.AddrFrom16(b)
	}
	pkts := traffic.Generate(traffic.Config{Sessions: 400, Seed: 99}).Packets
	hasV6 := false
	for i := range pkts {
		p := &pkts[i]
		p.SrcIP, p.DstIP = toV6(p.SrcIP), toV6(p.DstIP)
		if i%3 == 0 {
			p.VLAN = 42
		}
		hasV6 = hasV6 || !p.EncodableV1()
	}
	if !hasV6 {
		t.Fatal("rewrite produced no v2-frame packets; the differential is vacuous")
	}
	single, _, _ := versusSingle(t, pkts)
	v6Alerts := 0
	for _, fp := range single {
		if strings.Contains(fp, ":") {
			v6Alerts++
		}
	}
	if v6Alerts == 0 {
		t.Fatal("no v6 flow alerted; the v2 alert frame went unexercised")
	}
}
