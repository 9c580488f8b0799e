package netflow

// NumFeatures is the length of the CIC-style feature vector.
const NumFeatures = 78

// featureNames lists the 78 extracted features in vector order. The set
// mirrors CICFlowMeter's output (the feature table CIC-IDS-2017/2018 ship
// with), with bulk statistics approximated per active period.
var featureNames = [NumFeatures]string{
	"flow_duration",
	"total_fwd_packets",
	"total_bwd_packets",
	"total_len_fwd_packets",
	"total_len_bwd_packets",
	"fwd_pkt_len_max",
	"fwd_pkt_len_min",
	"fwd_pkt_len_mean",
	"fwd_pkt_len_std",
	"bwd_pkt_len_max",
	"bwd_pkt_len_min",
	"bwd_pkt_len_mean",
	"bwd_pkt_len_std",
	"flow_bytes_per_s",
	"flow_pkts_per_s",
	"flow_iat_mean",
	"flow_iat_std",
	"flow_iat_max",
	"flow_iat_min",
	"fwd_iat_total",
	"fwd_iat_mean",
	"fwd_iat_std",
	"fwd_iat_max",
	"fwd_iat_min",
	"bwd_iat_total",
	"bwd_iat_mean",
	"bwd_iat_std",
	"bwd_iat_max",
	"bwd_iat_min",
	"fwd_psh_flags",
	"bwd_psh_flags",
	"fwd_urg_flags",
	"bwd_urg_flags",
	"fwd_header_len",
	"bwd_header_len",
	"fwd_pkts_per_s",
	"bwd_pkts_per_s",
	"pkt_len_min",
	"pkt_len_max",
	"pkt_len_mean",
	"pkt_len_std",
	"pkt_len_variance",
	"fin_flag_count",
	"syn_flag_count",
	"rst_flag_count",
	"psh_flag_count",
	"ack_flag_count",
	"urg_flag_count",
	"cwr_flag_count",
	"ece_flag_count",
	"down_up_ratio",
	"avg_packet_size",
	"avg_fwd_segment_size",
	"avg_bwd_segment_size",
	"fwd_bytes_bulk_avg",
	"fwd_pkts_bulk_avg",
	"fwd_bulk_rate_avg",
	"bwd_bytes_bulk_avg",
	"bwd_pkts_bulk_avg",
	"bwd_bulk_rate_avg",
	"subflow_fwd_packets",
	"subflow_fwd_bytes",
	"subflow_bwd_packets",
	"subflow_bwd_bytes",
	"init_fwd_win_bytes",
	"init_bwd_win_bytes",
	"fwd_act_data_pkts",
	"fwd_seg_size_min",
	"active_mean",
	"active_std",
	"active_max",
	"active_min",
	"idle_mean",
	"idle_std",
	"idle_max",
	"idle_min",
	"protocol",
	"destination_port",
}

// FeatureNames returns the 78 feature names in vector order.
func FeatureNames() []string {
	out := make([]string, NumFeatures)
	copy(out, featureNames[:])
	return out
}

// safeDiv returns a/b, or 0 when b == 0 (degenerate flows must still yield
// finite features).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AppendFeatures appends the 78-element CIC-style feature vector of a
// completed flow to v and returns the extended slice; callers that reuse
// v (the streaming engine's classification hot path, the dataset
// builder's one flat matrix) allocate nothing per flow. Call only after
// the assembler evicts the flow (finish has run). A packet counter past
// math.MaxUint32 reports the ceiling; Min and Max of an empty Stats
// report 0.
func (f *Flow) AppendFeatures(v []float32) []float32 {
	dur := f.Duration()
	// Merging the directional Welford states keeps the exact std.
	all := mergeStats(f.FwdLen, f.BwdLen)

	active, idle := f.Activity()
	subflows := active.N
	if subflows == 0 {
		subflows = 1
	}
	fsub := float64(subflows)

	segMin := f.FwdSegSizeMin
	if segMin == 1<<30 {
		segMin = 0
	}

	push := func(x float64) { v = append(v, float32(x)) }

	push(dur)
	push(float64(f.FwdLen.N))
	push(float64(f.BwdLen.N))
	push(f.FwdLen.Sum)
	push(f.BwdLen.Sum)
	push(f.FwdLen.Max)
	push(f.FwdLen.Min)
	push(f.FwdLen.Mean())
	push(f.FwdLen.Std())
	push(f.BwdLen.Max)
	push(f.BwdLen.Min)
	push(f.BwdLen.Mean())
	push(f.BwdLen.Std())
	push(safeDiv(f.TotalBytes(), dur))
	push(safeDiv(float64(f.TotalPackets()), dur))
	push(f.FlowIAT.Mean())
	push(f.FlowIAT.Std())
	push(f.FlowIAT.Max)
	push(f.FlowIAT.Min)
	push(f.FwdIAT.Sum)
	push(f.FwdIAT.Mean())
	push(f.FwdIAT.Std())
	push(f.FwdIAT.Max)
	push(f.FwdIAT.Min)
	push(f.BwdIAT.Sum)
	push(f.BwdIAT.Mean())
	push(f.BwdIAT.Std())
	push(f.BwdIAT.Max)
	push(f.BwdIAT.Min)
	push(float64(f.FwdPSH))
	push(float64(f.BwdPSH))
	push(float64(f.FwdURG))
	push(float64(f.BwdURG))
	push(float64(f.FwdHeaderBytes))
	push(float64(f.BwdHeaderBytes))
	push(safeDiv(float64(f.FwdLen.N), dur))
	push(safeDiv(float64(f.BwdLen.N), dur))
	push(all.Min)
	push(all.Max)
	push(all.Mean())
	push(all.Std())
	push(all.Variance())
	push(float64(f.FlagCounts[0])) // FIN
	push(float64(f.FlagCounts[1])) // SYN
	push(float64(f.FlagCounts[2])) // RST
	push(float64(f.FlagCounts[3])) // PSH
	push(float64(f.FlagCounts[4])) // ACK
	push(float64(f.FlagCounts[5])) // URG
	push(float64(f.FlagCounts[7])) // CWR
	push(float64(f.FlagCounts[6])) // ECE
	push(safeDiv(float64(f.BwdLen.N), float64(f.FwdLen.N)))
	push(safeDiv(f.TotalBytes(), float64(f.TotalPackets())))
	push(f.FwdLen.Mean())
	push(f.BwdLen.Mean())
	push(f.FwdLen.Sum / fsub)               // fwd bytes per bulk/active period
	push(float64(f.FwdLen.N) / fsub)        // fwd pkts per bulk
	push(safeDiv(f.FwdLen.Sum, active.Sum)) // fwd bulk rate
	push(f.BwdLen.Sum / fsub)
	push(float64(f.BwdLen.N) / fsub)
	push(safeDiv(f.BwdLen.Sum, active.Sum))
	push(float64(f.FwdLen.N) / fsub) // subflow fwd packets
	push(f.FwdLen.Sum / fsub)        // subflow fwd bytes
	push(float64(f.BwdLen.N) / fsub)
	push(f.BwdLen.Sum / fsub)
	push(float64(f.InitFwdWin))
	push(float64(f.InitBwdWin))
	push(float64(f.FwdActDataPkts))
	push(float64(segMin))
	push(active.Mean())
	push(active.Std())
	push(active.Max)
	push(active.Min)
	push(idle.Mean())
	push(idle.Std())
	push(idle.Max)
	push(idle.Min)
	push(float64(f.Key.Proto))
	// Destination port from the initiator's perspective: the responder
	// endpoint's port.
	if f.InitSrcIP == f.Key.IPA && f.InitSrcPort == f.Key.PortA {
		push(float64(f.Key.PortB))
	} else {
		push(float64(f.Key.PortA))
	}
	return v
}

// mergeStats combines two Welford accumulators exactly (Chan et al.).
func mergeStats(a, b Stats) Stats {
	if a.N == 0 {
		return b
	}
	if b.N == 0 {
		return a
	}
	out := Stats{N: a.N + b.N, Sum: a.Sum + b.Sum}
	out.Min = a.Min
	if b.Min < out.Min {
		out.Min = b.Min
	}
	out.Max = a.Max
	if b.Max > out.Max {
		out.Max = b.Max
	}
	na, nb := float64(a.N), float64(b.N)
	delta := b.mean - a.mean
	out.mean = a.mean + delta*nb/(na+nb)
	out.m2 = a.m2 + b.m2 + delta*delta*na*nb/(na+nb)
	return out
}
