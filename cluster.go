package cyberhd

import "cyberhd/internal/cluster"

// Cluster serving: the layer that scales the runtime past one process. An
// ingest node partitions a packet stream by flow hash across N detector
// workers over TCP and merges their alert and telemetry streams back;
// model snapshots replicate to every worker through the control-plane
// gates. Cluster verdicts over a capture are bit-identical to a
// single-process engine over the same capture.
type (
	// ClusterWorkerConfig tunes a detector worker; the zero value serves.
	ClusterWorkerConfig = cluster.WorkerConfig
	// ClusterClient is an ingest node's handle on its worker fleet. It
	// implements the engine Stream contract, so the standard Runner (and
	// Serve loop) drives a cluster exactly like a local engine. Build
	// with DialCluster.
	ClusterClient = cluster.Client
	// ClusterConfig assembles a ClusterClient: worker addresses, the
	// serving COWModel, the normalizer and class names, plus the engine
	// settings forwarded to every worker.
	ClusterConfig = cluster.ClientConfig
)

var (
	// NewClusterWorker binds a listen address and returns a detector
	// worker ready to Serve: it accepts ingest connections and serves one
	// detection session per connection, driven entirely over the wire.
	NewClusterWorker = cluster.NewWorker
	// DialCluster connects to every worker in a ClusterConfig, replicates
	// the initial model snapshot, and returns a serving-ready
	// ClusterClient.
	DialCluster = cluster.Dial
)
