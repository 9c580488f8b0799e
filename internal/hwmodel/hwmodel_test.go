package hwmodel

import (
	"math"
	"testing"

	"cyberhd/internal/bitpack"
)

// paperCPU and paperFPGA are Table I's published normalized efficiencies.
var paperCPU = map[bitpack.Width]float64{
	bitpack.W32: 6.6, bitpack.W16: 4.0, bitpack.W8: 2.4,
	bitpack.W4: 1.5, bitpack.W2: 1.2, bitpack.W1: 1.0,
}

var paperFPGA = map[bitpack.Width]float64{
	bitpack.W32: 16, bitpack.W16: 24, bitpack.W8: 34,
	bitpack.W4: 31, bitpack.W2: 28, bitpack.W1: 26,
}

func tableRows(t *testing.T) []Row {
	t.Helper()
	rows, err := Table(DefaultCPU(), DefaultFPGA(), PaperEffectiveDims)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTableOrderingAndBase(t *testing.T) {
	rows := tableRows(t)
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Width >= rows[i-1].Width {
			t.Fatal("rows not in descending bitwidth order")
		}
	}
	last := rows[len(rows)-1]
	if last.Width != bitpack.W1 || math.Abs(last.CPUEff-1) > 1e-9 {
		t.Fatalf("1-bit CPU not the normalization base: %+v", last)
	}
}

func TestCPURowMatchesPaper(t *testing.T) {
	for _, row := range tableRows(t) {
		want := paperCPU[row.Width]
		if math.Abs(row.CPUEff-want) > 0.12*want {
			t.Errorf("CPU %2d-bit: got %.2f, paper %.1f", row.Width, row.CPUEff, want)
		}
	}
}

func TestFPGARowMatchesPaperShape(t *testing.T) {
	rows := tableRows(t)
	byWidth := map[bitpack.Width]Row{}
	for _, r := range rows {
		byWidth[r.Width] = r
	}
	// Absolute values within 15% of the paper.
	for w, want := range paperFPGA {
		if got := byWidth[w].FPGAEff; math.Abs(got-want) > 0.15*want {
			t.Errorf("FPGA %2d-bit: got %.1f, paper %.0f", w, got, want)
		}
	}
	// The qualitative claims: FPGA beats CPU everywhere, peak at 8 bits.
	for _, r := range rows {
		if r.FPGAEff <= r.CPUEff {
			t.Errorf("FPGA (%.1f) not above CPU (%.1f) at %d bits", r.FPGAEff, r.CPUEff, r.Width)
		}
	}
	peak := byWidth[bitpack.W8].FPGAEff
	for w, r := range byWidth {
		if w != bitpack.W8 && r.FPGAEff > peak {
			t.Errorf("FPGA peak at %d bits (%.1f), paper peaks at 8 (%.1f)", w, r.FPGAEff, peak)
		}
	}
}

func TestCPUMonotonicallyPrefersWide(t *testing.T) {
	rows := tableRows(t)
	for i := 1; i < len(rows); i++ {
		if rows[i].CPUEff >= rows[i-1].CPUEff {
			t.Errorf("CPU efficiency should fall with narrower widths: %v then %v",
				rows[i-1], rows[i])
		}
	}
}

func TestTableRequires1Bit(t *testing.T) {
	_, err := Table(DefaultCPU(), DefaultFPGA(), map[bitpack.Width]int{bitpack.W8: 1000})
	if err == nil {
		t.Fatal("accepted dims without the 1-bit base")
	}
}

func TestTableRejectsInvalidWidth(t *testing.T) {
	_, err := Table(DefaultCPU(), DefaultFPGA(), map[bitpack.Width]int{
		bitpack.W1: 1000, bitpack.Width(7): 500,
	})
	if err == nil {
		t.Fatal("accepted invalid width")
	}
}

func TestFPGAPowerBudget(t *testing.T) {
	// Paper: "power consumption of the CyberHD accelerator is less than
	// 20 W under 200 MHz frequency" — the defaults must respect that.
	f := DefaultFPGA()
	if f.PowerW >= 20 || f.FreqMHz != 200 {
		t.Fatalf("defaults out of paper spec: %+v", f)
	}
}

func TestEffectiveDimsGrowAsWidthShrinks(t *testing.T) {
	prev := 0
	for _, w := range []bitpack.Width{bitpack.W32, bitpack.W16, bitpack.W8, bitpack.W4, bitpack.W2, bitpack.W1} {
		d := PaperEffectiveDims[w]
		if d <= prev {
			t.Fatalf("effective D not increasing at %d bits", w)
		}
		prev = d
	}
}
