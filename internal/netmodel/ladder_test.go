package netmodel

import (
	"math"
	"strconv"
	"testing"

	"magus/internal/lte"
	"magus/internal/umts"
)

// fixedLadder is a RateMapper over given tables.
type fixedLadder struct{ th, rates []float64 }

func (l fixedLadder) RateLadder() (thresholds, rates []float64) { return l.th, l.rates }

// TestLevelsMatchLinkModels pins each model's merged level table to its
// link model's own rate function at every ladder threshold and one ulp
// either side of it: LTE at every bandwidth, whose adjacent CQIs that
// share an MCS merge into 14 levels, and UMTS, whose 29 steps are all
// distinct. The levels tile the SINR axis with strictly rising rates.
func TestLevelsMatchLinkModels(t *testing.T) {
	type link interface {
		RateMapper
		MaxRateBpsLinear(sinrLin float64) float64
	}
	links := map[string]link{"umts": umts.NewLinkModel()}
	wantLevels := map[string]int{"umts": 29}
	for _, hz := range []float64{1.4e6, 3e6, 5e6, 10e6, 15e6, 20e6} {
		name := "lte-" + strconv.FormatFloat(hz/1e6, 'g', -1, 64) + "MHz"
		links[name] = lte.MustNewLinkModel(hz)
		wantLevels[name] = 14
	}
	for name, l := range links {
		lv, err := newLevels(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(lv) != wantLevels[name] {
			t.Errorf("%s: %d levels, want %d", name, len(lv), wantLevels[name])
		}
		if !math.IsInf(lv[0].lo, -1) || !math.IsInf(lv[len(lv)-1].hi, 1) || lv[0].rate != 0 {
			t.Fatalf("%s: levels run [%v, %v) from rate %v", name, lv[0].lo, lv[len(lv)-1].hi, lv[0].rate)
		}
		for k := 1; k < len(lv); k++ {
			if lv[k].lo != lv[k-1].hi || !(lv[k].rate > lv[k-1].rate) ||
				math.Float64bits(lv[k].l) != math.Float64bits(math.Log10(lv[k].rate/1000)) {
				t.Fatalf("%s: level %d %+v after %+v", name, k, lv[k], lv[k-1])
			}
		}
		th, _ := l.RateLadder()
		for _, x := range th {
			for _, sinr := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
				k := levelScan(lv, sinr)
				if got, want := lv[k].rate, l.MaxRateBpsLinear(sinr); got != want {
					t.Fatalf("%s: SINR %v at level %d rate %v, link model %v", name, sinr, k, got, want)
				}
				if walked := stepLevel(lv, uint8(len(lv)-1), sinr); walked != k {
					t.Fatalf("%s: SINR %v walked down to level %d, scan %d", name, sinr, walked, k)
				}
			}
		}
	}
}

// TestNewModelRejectsBadLadders: a model refuses a ladder whose
// thresholds are not positive and strictly ascending, whose rates fall,
// whose tables differ in length, or that has more than 255 levels once
// equal adjacent rates merge; 255 levels are accepted.
func TestNewModelRejectsBadLadders(t *testing.T) {
	m := testModel(t)
	ladder := func(n int) fixedLadder {
		l := fixedLadder{}
		for i := 1; i <= n; i++ {
			l.th = append(l.th, float64(i))
			l.rates = append(l.rates, float64(1000*i))
		}
		return l
	}
	for name, tc := range map[string]struct {
		link RateMapper
		ok   bool
	}{
		"255 levels":           {ladder(254), true},
		"256 levels":           {ladder(255), false},
		"256 steps, 255 rates": {fixedLadder{append(ladder(254).th, 300), append(ladder(254).rates, 254000)}, true},
		"descending":           {fixedLadder{[]float64{2, 1}, []float64{1, 2}}, false},
		"repeated threshold":   {fixedLadder{[]float64{1, 1}, []float64{1, 2}}, false},
		"zero threshold":       {fixedLadder{[]float64{0, 1}, []float64{1, 2}}, false},
		"NaN threshold":        {fixedLadder{[]float64{math.NaN()}, []float64{1}}, false},
		"falling rate":         {fixedLadder{[]float64{1, 2}, []float64{2, 1}}, false},
		"length mismatch":      {fixedLadder{[]float64{1, 2}, []float64{1}}, false},
	} {
		_, err := NewModel(m.Net, m.SPM, m.Net.Bounds, Params{CellSizeM: 200, Link: tc.link})
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", name, err, tc.ok)
		}
	}
}
