// Package hwmodel provides analytic energy/latency models of the paper's
// two evaluation platforms — an Intel i9-12900 CPU and a Xilinx Alveo U50
// FPGA — used to regenerate Table I.
//
// We do not have the physical testbeds, so each platform is modeled by the
// mechanism Table I demonstrates and calibrated against the paper's
// published normalized ratios (substitution table in the paper reproduction notes):
//
//   - CPU: a scalar/short-SIMD machine retires roughly one element per
//     ALU op regardless of element bitwidth, so query energy scales with
//     the number of elements processed (the effective dimensionality at
//     that bitwidth) plus a memory-traffic term that grows with bitwidth.
//     Narrow elements therefore do not help the CPU: it is most efficient
//     at high bitwidth where the effective dimensionality is lowest.
//
//   - FPGA: a fixed fabric budget is tiled with b-bit MAC lanes, so
//     parallelism grows as 1/b while per-element energy grows ~b² (DSP
//     multiplier) + b (routing) + constant (control). The product with the
//     growing effective dimensionality gives the characteristic peak at
//     8 bits.
//
// Energies are reported normalized to the 1-bit CPU configuration exactly
// as in Table I.
package hwmodel

import (
	"fmt"
	"sort"

	"cyberhd/internal/bitpack"
)

// CPUModel is the per-element energy model of a high-frequency scalar CPU.
// EnergyPerQuery = dEff · (1 + MemKappa · b/32), in arbitrary units.
type CPUModel struct {
	// MemKappa weights the memory-traffic term relative to ALU energy at
	// 32-bit. Calibrated to the paper's CPU row.
	MemKappa float64
}

// FPGAModel is the fabric-budget energy model of the accelerator.
// Per-element energy = C2·b² + C1·b + C0.
type FPGAModel struct {
	C2, C1, C0 float64
	// FreqMHz is the accelerator clock (paper: 200 MHz).
	FreqMHz float64
	// PowerW is the board power (paper: < 20 W on the Alveo U50).
	PowerW float64
}

// DefaultCPU returns the CPU model calibrated against Table I.
func DefaultCPU() CPUModel { return CPUModel{MemKappa: 0.115} }

// DefaultFPGA returns the FPGA model calibrated against Table I.
func DefaultFPGA() FPGAModel {
	return FPGAModel{
		C2: 1, C1: 4.073, C0: 100.2,
		FreqMHz: 200, PowerW: 19,
	}
}

// PaperEffectiveDims is Table I's "Effective D" row: the effective
// dimensionality CyberHD needs at each element bitwidth to hold accuracy.
// Narrower elements lose per-dimension information capacity, so more
// dimensions are needed.
var PaperEffectiveDims = map[bitpack.Width]int{
	bitpack.W32: 1200,
	bitpack.W16: 2100,
	bitpack.W8:  3600,
	bitpack.W4:  5600,
	bitpack.W2:  7500,
	bitpack.W1:  8800,
}

// EnergyPerQuery returns the CPU energy (arbitrary units) to score one
// query against the class memory at effective dimensionality dEff and
// element bitwidth w.
func (c CPUModel) EnergyPerQuery(dEff int, w bitpack.Width) float64 {
	return float64(dEff) * (1 + c.MemKappa*float64(w)/32)
}

// EnergyPerQuery returns the FPGA energy (same units as the CPU model after
// normalization) for one query.
func (f FPGAModel) EnergyPerQuery(dEff int, w bitpack.Width) float64 {
	b := float64(w)
	perElem := f.C2*b*b + f.C1*b + f.C0
	// Normalize so the model is comparable to CPUModel units: the paper's
	// normalization divides everything by the 1-bit CPU energy anyway.
	const fabricScale = 1.0 / 2727.0 // calibrated to FPGA(1-bit) = 26× CPU(1-bit)
	return float64(dEff) * perElem * fabricScale
}

// Row is one column of Table I (a bitwidth configuration).
type Row struct {
	Width        bitpack.Width
	EffectiveDim int
	// CPUEff and FPGAEff are energy efficiencies normalized to the 1-bit
	// CPU configuration (higher is better), exactly Table I's convention.
	CPUEff, FPGAEff float64
}

// Table computes Table I for the given effective dimensionality per width
// (pass PaperEffectiveDims, or dims measured by the experiment harness).
// Rows are ordered by descending bitwidth like the paper.
func Table(cpu CPUModel, fpga FPGAModel, dims map[bitpack.Width]int) ([]Row, error) {
	base, ok := dims[bitpack.W1]
	if !ok {
		return nil, fmt.Errorf("hwmodel: dims must include the 1-bit width")
	}
	ref := cpu.EnergyPerQuery(base, bitpack.W1)
	widths := make([]bitpack.Width, 0, len(dims))
	for w := range dims {
		if !w.Valid() {
			return nil, fmt.Errorf("hwmodel: invalid width %d", w)
		}
		widths = append(widths, w)
	}
	sort.Slice(widths, func(i, j int) bool { return widths[i] > widths[j] })
	rows := make([]Row, 0, len(widths))
	for _, w := range widths {
		d := dims[w]
		rows = append(rows, Row{
			Width:        w,
			EffectiveDim: d,
			CPUEff:       ref / cpu.EnergyPerQuery(d, w),
			FPGAEff:      ref / fpga.EnergyPerQuery(d, w),
		})
	}
	return rows, nil
}
