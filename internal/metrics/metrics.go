// Package metrics provides classification quality measures (confusion
// matrix, per-class precision/recall/F1, macro averages) shared by the
// experiment harness and the CLI.
package metrics

import (
	"fmt"
	"strings"
)

// Confusion is a k×k confusion matrix: Counts[actual][predicted].
type Confusion struct {
	Classes []string
	Counts  [][]int
}

// NewConfusion builds an empty confusion matrix over the given classes.
func NewConfusion(classes []string) *Confusion {
	k := len(classes)
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	return &Confusion{Classes: classes, Counts: counts}
}

// Add records one (actual, predicted) observation.
func (c *Confusion) Add(actual, predicted int) {
	c.Counts[actual][predicted]++
}

// AddAll records paired label slices. It panics on length mismatch.
func (c *Confusion) AddAll(actual, predicted []int) {
	if len(actual) != len(predicted) {
		panic("metrics: AddAll length mismatch")
	}
	for i := range actual {
		c.Add(actual[i], predicted[i])
	}
}

// Accuracy returns the share of preds equal to their labels y, the one
// accuracy every model's Evaluate reports.
func Accuracy(preds, y []int) float64 {
	correct := 0
	for i, p := range preds {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// Accuracy returns the fraction of correct predictions (0 when empty).
func (c *Confusion) Accuracy() float64 {
	total, correct := 0, 0
	for i, row := range c.Counts {
		for j, n := range row {
			total += n
			if i == j {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// ClassReport holds per-class quality measures.
type ClassReport struct {
	Class     string
	Support   int
	Precision float64
	Recall    float64
	F1        float64
}

// Report returns per-class precision/recall/F1. Classes with no support
// and no predictions report zeros.
func (c *Confusion) Report() []ClassReport {
	k := len(c.Classes)
	out := make([]ClassReport, k)
	for i := 0; i < k; i++ {
		tp := c.Counts[i][i]
		var fp, fn int
		for j := 0; j < k; j++ {
			if j != i {
				fp += c.Counts[j][i]
				fn += c.Counts[i][j]
			}
		}
		r := ClassReport{Class: c.Classes[i], Support: tp + fn}
		if tp+fp > 0 {
			r.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			r.Recall = float64(tp) / float64(tp+fn)
		}
		if r.Precision+r.Recall > 0 {
			r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
		}
		out[i] = r
	}
	return out
}

// MacroF1 returns the unweighted mean F1 over classes with support.
func (c *Confusion) MacroF1() float64 {
	var sum float64
	n := 0
	for _, r := range c.Report() {
		if r.Support > 0 {
			sum += r.F1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DetectionRate returns recall over all non-benign classes combined,
// treating class benignIdx as the negative class — the NIDS-facing metric
// (how many attacks of any kind are flagged as *some* attack).
func (c *Confusion) DetectionRate(benignIdx int) float64 {
	var attacks, detected int
	for i, row := range c.Counts {
		if i == benignIdx {
			continue
		}
		for j, n := range row {
			attacks += n
			if j != benignIdx {
				detected += n
			}
		}
	}
	if attacks == 0 {
		return 0
	}
	return float64(detected) / float64(attacks)
}

// FalseAlarmRate returns the fraction of benign samples predicted as any
// attack class.
func (c *Confusion) FalseAlarmRate(benignIdx int) float64 {
	row := c.Counts[benignIdx]
	var benign, alarms int
	for j, n := range row {
		benign += n
		if j != benignIdx {
			alarms += n
		}
	}
	if benign == 0 {
		return 0
	}
	return float64(alarms) / float64(benign)
}

// String renders the confusion matrix with class names.
func (c *Confusion) String() string {
	var b strings.Builder
	w := 8
	for _, cl := range c.Classes {
		if len(cl) > w {
			w = len(cl)
		}
	}
	fmt.Fprintf(&b, "%*s", w+1, "")
	for _, cl := range c.Classes {
		fmt.Fprintf(&b, " %*s", w, cl)
	}
	b.WriteByte('\n')
	for i, row := range c.Counts {
		fmt.Fprintf(&b, "%*s:", w, c.Classes[i])
		for _, n := range row {
			fmt.Fprintf(&b, " %*d", w, n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
