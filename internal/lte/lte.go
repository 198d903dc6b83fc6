// Package lte implements the radio-link rate pipeline the paper uses to
// map a grid's SINR to a user throughput (Section 4.1): SINR -> CQI
// (LENA-style spectral-efficiency mapping) -> MCS (3GPP TS 36.213 Table
// 7.1.7.1-1) -> transport block size (Table 7.1.7.2.1-1) -> rate.
//
// The CQI table and the MCS -> I_TBS mapping are taken verbatim from the
// 3GPP specification. The transport-block-size table is anchored on the
// 50-PRB (10 MHz) column of Table 7.1.7.2.1-1 and scaled linearly (and
// byte-aligned) for other bandwidths; the paper's evaluation is on a
// single 10 MHz carrier, where the values are exact.
package lte

import (
	"fmt"
	"math"
	"slices"
)

// Modulation identifies the constellation used by a CQI or MCS entry.
type Modulation uint8

// LTE downlink modulations.
const (
	QPSK Modulation = iota
	QAM16
	QAM64
)

// String returns the conventional name of the modulation.
func (m Modulation) String() string {
	switch m {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("modulation(%d)", uint8(m))
	}
}

// BitsPerSymbol returns the number of bits carried per modulation symbol.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		return 0
	}
}

// CQIEntry is one row of 3GPP TS 36.213 Table 7.2.3-1 (4-bit CQI).
type CQIEntry struct {
	Index      int
	Modulation Modulation
	// CodeRate1024 is the code rate multiplied by 1024.
	CodeRate1024 int
	// Efficiency is the spectral efficiency in bits per resource element.
	Efficiency float64
}

// CQITable is 3GPP TS 36.213 Table 7.2.3-1. Index 0 ("out of range") is
// omitted; CQI indices run 1..15.
var CQITable = [15]CQIEntry{
	{1, QPSK, 78, 0.1523},
	{2, QPSK, 120, 0.2344},
	{3, QPSK, 193, 0.3770},
	{4, QPSK, 308, 0.6016},
	{5, QPSK, 449, 0.8770},
	{6, QPSK, 602, 1.1758},
	{7, QAM16, 378, 1.4766},
	{8, QAM16, 490, 1.9141},
	{9, QAM16, 616, 2.4063},
	{10, QAM64, 466, 2.7305},
	{11, QAM64, 567, 3.3223},
	{12, QAM64, 666, 3.9023},
	{13, QAM64, 772, 4.5234},
	{14, QAM64, 873, 5.1152},
	{15, QAM64, 948, 5.5547},
}

// mcsToItbs is 3GPP TS 36.213 Table 7.1.7.1-1: MCS index (0..28) to
// transport-block-size index I_TBS for PDSCH.
var mcsToItbs = [29]int{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, // MCS 0-9: QPSK
	9, 10, 11, 12, 13, 14, 15, // MCS 10-16: 16QAM
	15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, // MCS 17-28: 64QAM
}

// mcsModulation gives the modulation for each MCS index per Table 7.1.7.1-1.
func mcsModulation(mcs int) Modulation {
	switch {
	case mcs <= 9:
		return QPSK
	case mcs <= 16:
		return QAM16
	default:
		return QAM64
	}
}

// tbs50 is the N_PRB = 50 column of 3GPP TS 36.213 Table 7.1.7.2.1-1:
// transport block size in bits per 1 ms TTI for I_TBS 0..26 on a 10 MHz
// carrier. This is the paper's operating point (single 10 MHz LTE
// carrier).
var tbs50 = [27]int{
	1384, 1800, 2216, 2856, 3624, 4392, 5160, 6200, 6968, 7992,
	8760, 9912, 11448, 12960, 14112, 15264, 16416, 18336, 19848, 21384,
	22920, 25456, 27376, 28336, 30576, 31704, 36696,
}

// PRBForBandwidth maps an LTE channel bandwidth in Hz to the number of
// physical resource blocks.
func PRBForBandwidth(hz float64) (int, error) {
	switch hz {
	case 1.4e6:
		return 6, nil
	case 3e6:
		return 15, nil
	case 5e6:
		return 25, nil
	case 10e6:
		return 50, nil
	case 15e6:
		return 75, nil
	case 20e6:
		return 100, nil
	default:
		return 0, fmt.Errorf("lte: unsupported bandwidth %v Hz", hz)
	}
}

// LinkModel converts SINR to achievable downlink rate for a given carrier
// configuration. The zero value is not useful; use NewLinkModel.
type LinkModel struct {
	prb int
	// gammaLin is the LENA effective-SNR gap Gamma = -ln(5 BER)/1.5 in
	// linear units; spectral efficiency = log2(1 + snr/Gamma).
	gammaLin float64
	// cqiSinrThresholdsDB[i] is the minimum SINR in dB that supports CQI
	// i+1.
	cqiSinrThresholdsDB [15]float64
	// cqiSinrThresholdsLin are the same thresholds in linear units, for
	// the allocation-free hot path.
	cqiSinrThresholdsLin [15]float64
	// rateByCqi[c] is the full-carrier rate in bits/s at CQI c
	// (rateByCqi[0] = 0: out of service).
	rateByCqi [16]float64
}

// DefaultBLER is the block error target used for the CQI SINR mapping,
// following the LENA LTE simulator's default.
const DefaultBLER = 0.00005

// NewLinkModel builds a link model for the given carrier bandwidth.
func NewLinkModel(bandwidthHz float64) (*LinkModel, error) {
	prb, err := PRBForBandwidth(bandwidthHz)
	if err != nil {
		return nil, err
	}
	m := &LinkModel{
		prb:      prb,
		gammaLin: -math.Log(5*DefaultBLER) / 1.5,
	}
	// Invert eff = log2(1 + snr/Gamma) at each CQI efficiency to get
	// per-CQI SINR thresholds.
	for i, e := range CQITable {
		snr := (math.Pow(2, e.Efficiency) - 1) * m.gammaLin
		m.cqiSinrThresholdsDB[i] = 10 * math.Log10(snr)
		m.cqiSinrThresholdsLin[i] = snr
	}
	// Precompute the CQI -> rate ladder once; the per-grid hot path is
	// then a threshold scan plus a table lookup.
	for cqi := 1; cqi <= 15; cqi++ {
		mcs := m.CqiToMcs(cqi)
		tbs, err := TransportBlockSizeBits(mcsToItbs[mcs], m.prb)
		if err != nil {
			return nil, err
		}
		m.rateByCqi[cqi] = float64(tbs) * 1000
	}
	return m, nil
}

// MustNewLinkModel is NewLinkModel that panics on error.
func MustNewLinkModel(bandwidthHz float64) *LinkModel {
	m, err := NewLinkModel(bandwidthHz)
	if err != nil {
		panic(err)
	}
	return m
}

// PRB returns the number of physical resource blocks of the carrier.
func (m *LinkModel) PRB() int { return m.prb }

// MinSINRdB returns the SINR threshold below which the link is out of
// service (the paper's SINR_min): the CQI 1 threshold.
func (m *LinkModel) MinSINRdB() float64 { return m.cqiSinrThresholdsDB[0] }

// SinrToCqi maps an SINR in dB to a CQI index in 0..15, where 0 means
// out of range (no service).
func (m *LinkModel) SinrToCqi(sinrDB float64) int {
	cqi := 0
	for i := range m.cqiSinrThresholdsDB {
		if sinrDB >= m.cqiSinrThresholdsDB[i] {
			cqi = i + 1
		} else {
			break
		}
	}
	return cqi
}

// CqiToMcs maps a CQI index to the highest MCS whose spectral efficiency
// does not exceed the CQI's, the standard conservative link adaptation.
// CQI 0 maps to MCS -1 (no transmission).
func (m *LinkModel) CqiToMcs(cqi int) int {
	if cqi <= 0 {
		return -1
	}
	if cqi > 15 {
		cqi = 15
	}
	target := CQITable[cqi-1].Efficiency
	best := 0
	for mcs := 0; mcs <= 28; mcs++ {
		if mcsEfficiency(mcs) <= target+1e-9 {
			best = mcs
		}
	}
	return best
}

// mcsEfficiency returns the spectral efficiency (bits per resource
// element) of an MCS, derived from its 50-PRB transport block size:
// 50 PRB x 12 subcarriers x 14 symbols = 8400 REs per TTI.
func mcsEfficiency(mcs int) float64 {
	return float64(tbs50[mcsToItbs[mcs]]) / 8400
}

// McsToItbs returns the transport-block-size index for an MCS index per
// Table 7.1.7.1-1.
func McsToItbs(mcs int) (int, error) {
	if mcs < 0 || mcs > 28 {
		return 0, fmt.Errorf("lte: MCS index %d out of range [0, 28]", mcs)
	}
	return mcsToItbs[mcs], nil
}

// McsModulation returns the modulation of an MCS index.
func McsModulation(mcs int) (Modulation, error) {
	if mcs < 0 || mcs > 28 {
		return 0, fmt.Errorf("lte: MCS index %d out of range [0, 28]", mcs)
	}
	return mcsModulation(mcs), nil
}

// TransportBlockSizeBits returns the transport block size in bits for a
// given I_TBS and PRB allocation, per Table 7.1.7.2.1-1. The 50-PRB
// column is exact; other allocations scale the 50-PRB value linearly and
// round down to byte alignment, a documented approximation (see package
// comment).
func TransportBlockSizeBits(itbs, nprb int) (int, error) {
	if itbs < 0 || itbs > 26 {
		return 0, fmt.Errorf("lte: I_TBS %d out of range [0, 26]", itbs)
	}
	if nprb < 1 || nprb > 110 {
		return 0, fmt.Errorf("lte: N_PRB %d out of range [1, 110]", nprb)
	}
	if nprb == 50 {
		return tbs50[itbs], nil
	}
	scaled := float64(tbs50[itbs]) * float64(nprb) / 50
	bits := (int(scaled) / 8) * 8
	if bits < 16 {
		bits = 16 // table floor: smallest TBS in the spec is 16 bits
	}
	return bits, nil
}

// MaxRateBps returns the maximum achievable downlink rate in bits/s for a
// link at the given SINR when the full carrier is allocated to one user
// (the paper's r_max). Returns 0 when SINR is below the service
// threshold.
func (m *LinkModel) MaxRateBps(sinrDB float64) float64 {
	return m.rateByCqi[m.SinrToCqi(sinrDB)]
}

// MaxRateBpsLinear is MaxRateBps for a linear-domain SINR, avoiding the
// dB conversion on the model's hot path.
func (m *LinkModel) MaxRateBpsLinear(sinrLin float64) float64 {
	cqi := 0
	for i := range m.cqiSinrThresholdsLin {
		if sinrLin >= m.cqiSinrThresholdsLin[i] {
			cqi = i + 1
		} else {
			break
		}
	}
	return m.rateByCqi[cqi]
}

// RateLadder returns the CQI ladder as a rate step table: rates[i] is
// the full-carrier rate from linear SINR thresholds[i] (the CQI i+1
// threshold) up to the next threshold, and below thresholds[0] the link
// is out of service. Looking a SINR up in it gives MaxRateBpsLinear.
func (m *LinkModel) RateLadder() (thresholds, rates []float64) {
	return slices.Clone(m.cqiSinrThresholdsLin[:]), slices.Clone(m.rateByCqi[1:])
}

// PeakRateBps returns the highest rate the carrier supports (CQI 15).
func (m *LinkModel) PeakRateBps() float64 {
	return m.MaxRateBps(m.cqiSinrThresholdsDB[14] + 1)
}
