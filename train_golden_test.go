package cyberhd

import (
	"hash/fnv"
	"math"
	"testing"
)

// trainGoldenDigest is the FNV-64a digest of the class memory of
// TrainDetector(CICIDS2017(400, 1), DefaultConfig()), recorded at the
// commit before the training loop moved onto the kernel layer (scalar
// hdc.Dot per class, hdc.Norm per visit, per-row EncodeDims). Training is
// specified bit for bit: a kernel or loop change that moves this digest
// has changed the model every fixture and replay pin was trained into.
const trainGoldenDigest = 0xe2e8d2a34f6e46d7

// TestTrainDetectorGoldenDigest pins the trained bytes, in whichever
// kernel build the test binary is (CI runs it under noasm too).
func TestTrainDetectorGoldenDigest(t *testing.T) {
	det, err := TrainDetector(CICIDS2017(400, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, v := range det.Model.Class.Data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	if got := h.Sum64(); got != trainGoldenDigest {
		t.Fatalf("class memory digest %#x, want %#x (kernels: %v)", got, uint64(trainGoldenDigest), Kernels())
	}
}
