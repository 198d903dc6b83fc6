package umts

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestThresholdAndPeak(t *testing.T) {
	m := NewLinkModel()
	if got := m.MinSINRdB(); math.Abs(got-(-10)) > 1e-9 {
		t.Errorf("MinSINRdB = %v, want -10", got)
	}
	if m.MaxRateBps(-11) != 0 {
		t.Error("below threshold should be out of service")
	}
	if m.MaxRateBps(-9.9) <= 0 {
		t.Error("just above threshold should be served")
	}
	if got := m.MaxRateBps(40); got != m.PeakRateBps() {
		t.Errorf("rate at 40 dB = %v, want peak %v", got, m.PeakRateBps())
	}
	if m.PeakRateBps() != 14.0e6 {
		t.Errorf("peak = %v, want category-10 14 Mb/s", m.PeakRateBps())
	}
}

func TestQuantization(t *testing.T) {
	m := NewLinkModel()
	for sinr := -10.0; sinr <= 30; sinr += 0.7 {
		r := m.MaxRateBps(sinr)
		if r == 0 {
			continue
		}
		if q := math.Mod(r, quantumBps); q > 1e-6 && quantumBps-q > 1e-6 {
			t.Fatalf("rate %v at %v dB not on the 0.5 Mb/s ladder", r, sinr)
		}
	}
}

func TestMonotoneProperty(t *testing.T) {
	m := NewLinkModel()
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 60) - 20
		y := math.Mod(math.Abs(b), 60) - 20
		if x > y {
			x, y = y, x
		}
		return m.MaxRateBps(x) <= m.MaxRateBps(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearAndDbAgree(t *testing.T) {
	m := NewLinkModel()
	for sinr := -15.0; sinr <= 35; sinr += 1.3 {
		lin := math.Pow(10, sinr/10)
		if m.MaxRateBps(sinr) != m.MaxRateBpsLinear(lin) {
			t.Fatalf("dB and linear paths disagree at %v dB", sinr)
		}
	}
	if m.MaxRateBpsLinear(0) != 0 || m.MaxRateBpsLinear(-1) != 0 {
		t.Error("non-positive linear SINR should be out of service")
	}
}

func TestUMTSBelowLTECapacity(t *testing.T) {
	// A 5 MHz HSDPA carrier peaks well below a 10 MHz LTE carrier —
	// the ordering the dual-RAT experiments rely on.
	m := NewLinkModel()
	if m.PeakRateBps() >= 36.696e6 {
		t.Error("HSDPA peak should be below the 10 MHz LTE peak")
	}
}

// ladderRate looks sinr up in the model's rate ladder: the rate of the
// highest threshold at or below it, 0 below the first.
func ladderRate(th, rates []float64, sinr float64) float64 {
	i := sort.Search(len(th), func(i int) bool { return th[i] > sinr })
	if i == 0 {
		return 0
	}
	return rates[i-1]
}

// TestLadderMatchesFormula pins the tabulated ladder to the formula it
// tabulates: the same rate at a million log-uniform SINRs over
// [1e-3, 1e4], and at every threshold and one ulp either side of it.
func TestLadderMatchesFormula(t *testing.T) {
	m := NewLinkModel()
	th, rates := m.RateLadder()
	if len(th) != 28 || len(rates) != len(th) {
		t.Fatalf("ladder has %d thresholds and %d rates, want 28 steps above out of service", len(th), len(rates))
	}
	for i := range th {
		if i > 0 && !(th[i] > th[i-1] && rates[i] > rates[i-1]) {
			t.Fatalf("step %d: threshold %v rate %v after %v, %v", i, th[i], rates[i], th[i-1], rates[i-1])
		}
	}
	if th[0] != m.minSinrLin || rates[len(rates)-1] != m.PeakRateBps() {
		t.Fatalf("ladder runs from %v to %v b/s, want the service threshold %v and the peak", th[0], rates[len(rates)-1], m.minSinrLin)
	}
	check := func(sinr float64) {
		if got, want := ladderRate(th, rates, sinr), m.MaxRateBpsLinear(sinr); got != want {
			t.Fatalf("SINR %v (%#x): ladder %v, formula %v", sinr, math.Float64bits(sinr), got, want)
		}
	}
	for _, x := range th {
		check(math.Nextafter(x, 0))
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(math.Pow(10, -3+7*rng.Float64()))
	}
}
