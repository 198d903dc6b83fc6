// Package umts models the downlink rate of a UMTS/HSDPA carrier, the
// second radio access technology the paper's upgrades affect ("impact
// all radio access technologies (such as LTE, UMTS as well as GSM)",
// Section 1) and one of its stated generalization targets ("other
// technologies as well, such as small cells and UMTS").
//
// HSDPA link adaptation is, like LTE's, a CQI ladder; lacking the LTE
// reproduction's table-level fidelity target here, the model uses the
// standard attenuated-Shannon approximation calibrated to HSDPA
// category-10 hardware: R = alpha * W * log2(1 + SINR), capped at the
// 14.0 Mb/s category peak, with an Ec/N0-style service threshold and
// 0.5 Mb/s CQI-step quantization. That formula (MaxRateBpsLinear) is the
// model's definition; NewLinkModel tabulates it once as a 29-level step
// table (out of service, then 0.5 to 14 Mb/s), which RateLadder hands to
// netmodel, so a UMTS carrier drops into every Magus pipeline unchanged.
package umts

import (
	"math"
	"slices"
)

// Carrier constants for a single 5 MHz UMTS carrier with an HSDPA
// category 10 terminal.
const (
	// BandwidthHz is the UMTS channel bandwidth.
	BandwidthHz = 5e6
	// ChipRateHz is the WCDMA chip rate.
	ChipRateHz = 3.84e6
	// peakRateBps is the HSDPA category-10 ceiling.
	peakRateBps = 14.0e6
	// quantumBps is the CQI-step granularity of the rate ladder.
	quantumBps = 0.5e6
)

// LinkModel maps SINR to HSDPA rate. The zero value is unusable; call
// NewLinkModel.
type LinkModel struct {
	// alpha is the Shannon attenuation factor (implementation margin).
	alpha float64
	// minSinrLin is the out-of-service threshold in linear units.
	minSinrLin float64
	// thresholds[i] is the smallest linear SINR at which
	// MaxRateBpsLinear reaches rates[i], ascending.
	thresholds, rates []float64
}

// NewLinkModel returns the category-10 HSDPA link model: attenuated
// Shannon with alpha = 0.55 and a -10 dB service threshold. It finds the
// SINR threshold of every 0.5 Mb/s step up to the peak once, by
// bisection.
func NewLinkModel() *LinkModel {
	m := &LinkModel{
		alpha:      0.55,
		minSinrLin: math.Pow(10, -10.0/10),
	}
	for r := quantumBps; r <= peakRateBps; r += quantumBps {
		t := m.firstSinrAt(r)
		m.thresholds = append(m.thresholds, t)
		m.rates = append(m.rates, m.MaxRateBpsLinear(t))
	}
	return m
}

// firstSinrAt returns the smallest positive float64 SINR at which
// MaxRateBpsLinear reaches rate. Positive float64s order like their bit
// patterns, so the bisection runs over the bits and ends on one float:
// the formula is below rate at lo and reaches it at hi throughout.
func (m *LinkModel) firstSinrAt(rate float64) float64 {
	lo, hi := uint64(0), math.Float64bits(math.MaxFloat64)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if m.MaxRateBpsLinear(math.Float64frombits(mid)) >= rate {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// RateLadder returns the tabulated formula: rates[i] from linear SINR
// thresholds[i] up to the next threshold, out of service below
// thresholds[0].
func (m *LinkModel) RateLadder() (thresholds, rates []float64) {
	return slices.Clone(m.thresholds), slices.Clone(m.rates)
}

// MinSINRdB returns the service threshold (the paper's SINR_min).
func (m *LinkModel) MinSINRdB() float64 { return 10 * math.Log10(m.minSinrLin) }

// PeakRateBps returns the single-user ceiling.
func (m *LinkModel) PeakRateBps() float64 { return peakRateBps }

// MaxRateBpsLinear returns the achievable rate for a linear SINR.
func (m *LinkModel) MaxRateBpsLinear(sinrLin float64) float64 {
	if sinrLin < m.minSinrLin || sinrLin <= 0 {
		return 0
	}
	r := m.alpha * ChipRateHz * math.Log2(1+sinrLin)
	if r > peakRateBps {
		r = peakRateBps
	}
	// Quantize down to the CQI ladder, keeping at least one step for
	// any in-service link.
	r = math.Floor(r/quantumBps) * quantumBps
	if r < quantumBps {
		r = quantumBps
	}
	return r
}

// MaxRateBps returns the achievable rate for a dB-domain SINR.
func (m *LinkModel) MaxRateBps(sinrDB float64) float64 {
	return m.MaxRateBpsLinear(math.Pow(10, sinrDB/10))
}
