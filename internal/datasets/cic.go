package datasets

import (
	"io"

	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/traffic"
)

// FromStream assembles a labeled packet stream into a flow-feature
// dataset: the honest CICFlowMeter-style derivation. classOf maps traffic
// labels to dataset class indices (return -1 to drop a flow); classNames
// names the resulting classes.
func FromStream(name string, s *traffic.Stream, classNames []string, classOf func(traffic.Label) int) *Dataset {
	ds, err := FromSource(name, netflow.NewSliceSource(s.Packets), s.Labels, classNames, classOf)
	if err != nil {
		// A slice source never fails; keep FromStream's simple signature.
		panic(err)
	}
	return ds
}

// FromSource assembles a packet source into a flow-feature dataset,
// streaming: packets are drained one at a time (a multi-gigabyte capture
// replays in O(flows) memory, not O(packets)), flows complete through the
// CIC assembler, and flows whose key appears in flowLabels become rows. A
// nil flowLabels marks every flow Benign — the honest label for replayed
// captures that carry no ground truth. classOf maps traffic labels to
// dataset class indices (return -1 to drop a flow); classNames names the
// resulting classes.
func FromSource(name string, src netflow.PacketSource, flowLabels map[netflow.FlowKey]traffic.Label,
	classNames []string, classOf func(traffic.Label) int) (*Dataset, error) {
	var feats [][]float32
	var labels []int
	a := netflow.NewAssembler(netflow.CICIdleTimeout, netflow.CICActivityGap, func(f *netflow.Flow) {
		label := traffic.Benign
		if flowLabels != nil {
			l, ok := flowLabels[f.Key]
			if !ok {
				return
			}
			label = l
		}
		c := classOf(label)
		if c < 0 {
			return
		}
		feats = append(feats, f.Features())
		labels = append(labels, c)
	})
	var p netflow.Packet
	for {
		err := src.Next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.Add(&p)
	}
	a.Flush()
	ds := &Dataset{
		Name:         name,
		FeatureNames: netflow.FeatureNames(),
		ClassNames:   classNames,
		X:            hdc.NewMatrix(len(feats), netflow.NumFeatures),
		Y:            labels,
	}
	for i, f := range feats {
		copy(ds.X.Row(i), f)
	}
	return ds, nil
}

// CICIDS2017 generates the CIC-IDS-2017 reconstruction: packet-level
// traffic across all eight 2017 classes, assembled and featurized into 78
// CIC features. sessions controls capture size (flow count is larger:
// scan/brute-force sessions expand into many flows).
func CICIDS2017(sessions int, seed uint64) *Dataset {
	s := traffic.Generate(traffic.Config{Sessions: sessions, Seed: seed})
	return FromStream("cic-ids-2017", s, traffic.LabelNames(), func(l traffic.Label) int { return int(l) })
}

// CICIDS2018 generates the CSE-CIC-IDS-2018 reconstruction. 2018 drops
// the port-scan category and shifts the mix toward DDoS/botnet traffic;
// flows are the same 78 CIC features.
func CICIDS2018(sessions int, seed uint64) *Dataset {
	mix := map[traffic.Label]float64{
		traffic.Benign: 0.72, traffic.DoS: 0.07, traffic.DDoS: 0.09,
		traffic.BruteForce: 0.05, traffic.WebAttack: 0.02,
		traffic.Botnet: 0.03, traffic.Infiltration: 0.02,
	}
	s := traffic.Generate(traffic.Config{Sessions: sessions, Seed: seed, Mix: mix})
	classNames := []string{"benign", "dos", "ddos", "bruteforce", "webattack", "botnet", "infiltration"}
	remap := map[traffic.Label]int{
		traffic.Benign: 0, traffic.DoS: 1, traffic.DDoS: 2,
		traffic.BruteForce: 3, traffic.WebAttack: 4,
		traffic.Botnet: 5, traffic.Infiltration: 6,
	}
	return FromStream("cic-ids-2018", s, classNames, func(l traffic.Label) int {
		if c, ok := remap[l]; ok {
			return c
		}
		return -1
	})
}

// ByName builds any of the four paper datasets by canonical name with a
// target sample budget. For the CIC sets, n is a session budget and the
// resulting flow count differs.
func ByName(name string, n int, seed uint64) (*Dataset, bool) {
	switch name {
	case "nsl-kdd":
		return NSLKDD(n, seed), true
	case "unsw-nb15":
		return UNSWNB15(n, seed), true
	case "cic-ids-2017":
		return CICIDS2017(n, seed), true
	case "cic-ids-2018":
		return CICIDS2018(n, seed), true
	}
	return nil, false
}

// PaperDatasets lists the four dataset names in the order of Fig 3/4.
func PaperDatasets() []string {
	return []string{"nsl-kdd", "unsw-nb15", "cic-ids-2017", "cic-ids-2018"}
}
