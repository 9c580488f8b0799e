package metrics

import (
	"math"
	"strings"
	"testing"
)

func sample() *Confusion {
	c := NewConfusion([]string{"benign", "dos", "scan"})
	// benign: 8 right, 2 as dos; dos: 5 right, 1 as scan; scan: 3 right, 1 as benign
	c.AddAll(
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2},
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 0},
	)
	return c
}

func TestAccuracy(t *testing.T) {
	c := sample()
	if got := c.Accuracy(); math.Abs(got-16.0/20) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestEmptyConfusion(t *testing.T) {
	c := NewConfusion([]string{"a", "b"})
	if c.Accuracy() != 0 || c.MacroF1() != 0 {
		t.Fatal("empty confusion should be zeros")
	}
}

func TestReport(t *testing.T) {
	c := sample()
	rep := c.Report()
	// benign: tp=8, fn=2, fp=1 → P=8/9, R=0.8
	if math.Abs(rep[0].Precision-8.0/9) > 1e-12 || math.Abs(rep[0].Recall-0.8) > 1e-12 {
		t.Fatalf("benign P=%v R=%v", rep[0].Precision, rep[0].Recall)
	}
	if rep[0].Support != 10 || rep[1].Support != 6 || rep[2].Support != 4 {
		t.Fatalf("supports %v %v %v", rep[0].Support, rep[1].Support, rep[2].Support)
	}
	for _, r := range rep {
		wantF1 := 0.0
		if r.Precision+r.Recall > 0 {
			wantF1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
		}
		if math.Abs(r.F1-wantF1) > 1e-12 {
			t.Fatalf("%s F1 = %v, want %v", r.Class, r.F1, wantF1)
		}
	}
}

func TestDetectionAndFalseAlarm(t *testing.T) {
	c := sample()
	// attacks: dos 6 + scan 4 = 10; missed (predicted benign): 1 (scan→benign)
	if got := c.DetectionRate(0); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("DetectionRate = %v", got)
	}
	// benign 10, alarms 2
	if got := c.FalseAlarmRate(0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("FalseAlarmRate = %v", got)
	}
}

func TestMacroF1Bounds(t *testing.T) {
	c := sample()
	f1 := c.MacroF1()
	if f1 <= 0 || f1 > 1 {
		t.Fatalf("MacroF1 = %v", f1)
	}
	// Perfect predictions → macro F1 = 1.
	p := NewConfusion([]string{"a", "b"})
	p.AddAll([]int{0, 1, 0}, []int{0, 1, 0})
	if p.MacroF1() != 1 {
		t.Fatalf("perfect MacroF1 = %v", p.MacroF1())
	}
}

func TestAddAllPanics(t *testing.T) {
	c := NewConfusion([]string{"a"})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.AddAll([]int{0}, []int{0, 0})
}

func TestStringContainsClasses(t *testing.T) {
	s := sample().String()
	for _, cl := range []string{"benign", "dos", "scan"} {
		if !strings.Contains(s, cl) {
			t.Fatalf("String() missing %q:\n%s", cl, s)
		}
	}
}
