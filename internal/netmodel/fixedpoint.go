// Fixed-point mirror of the link budgets: the quantized, sector-major
// representation behind SpeculateBatch's opt-in fixed kernel (batch.go).
//
// Representation. Every per-entry quantity the speculative scorer needs
// is quantized to int16 at 0.01 resolution: link budgets in centi-dB
// (base loss + boresight gain), elevation angles in centi-degrees. A
// centi-dB is a 0.23% step in linear power, so the quantization error of
// a single entry is at most ±0.12% — far below the CQI quantization of
// the LTE rate ladder (whole-dB-scale steps), which is why the golden
// test pins fixed-point plan utilities within 0.1% of the exact path
// instead of bit-exactness.
//
// Layout. Entries are stored sector-major (all of sector 0, then sector
// 1, ...) as parallel flat arrays — struct-of-arrays, so the scorer's
// pass over one sector walks each stream linearly, one cache line at a
// time, instead of chasing []entryRef element pairs interleaved with
// float64 columns it does not need. secStart[b] .. secStart[b+1] frames
// sector b.
//
// dB → mW without math.Exp. The exact path pays one math.Exp per entry
// (units.DbmToMw) when re-deriving received powers; the fixed path
// decomposes a centi-dB value c as q·1000 + r (q whole decades of 10 dB,
// r in [0, 1000)) and multiplies two table lookups: 10^q from a 133-entry
// decade table and 10^(r/1000) from a 1000-entry fraction table. Two
// loads and one multiply replace the transcendental.
//
// The build tag magus_nofixed (fixedmode_off.go) disables the quantized
// path at compile time: SpeculateBatch then always takes the float
// variant, which is how the golden comparison isolates quantization
// error from batching-order error.
package netmodel

import "math"

// fixedCore is the lazily built quantized mirror of a ModelCore's
// contributor arrays (one per core, built under ModelCore.fixedOnce).
type fixedCore struct {
	secStart []int32 // len numSectors+1: sector b's entries are [secStart[b], secStart[b+1])
	grid     []int32 // flat grid index, sector-major
	pos      []int32 // index into the grid-major contributor/state arrays
	baseCdb  []int16 // base link budget, centi-dB
	elevCdeg []int16 // elevation angle, centi-degrees
}

// fixed returns the core's quantized mirror, building it on first use.
func (c *ModelCore) fixedMirror() *fixedCore {
	c.fixedOnce.Do(func() {
		n := len(c.contribSector)
		f := &fixedCore{
			secStart: make([]int32, c.numSectors+1),
			grid:     make([]int32, 0, n),
			pos:      make([]int32, 0, n),
			baseCdb:  make([]int16, 0, n),
			elevCdeg: make([]int16, 0, n),
		}
		for b := 0; b < c.numSectors; b++ {
			f.secStart[b] = int32(len(f.grid))
			for _, ref := range c.sectorEntries[b] {
				f.grid = append(f.grid, ref.Grid)
				f.pos = append(f.pos, ref.Pos)
				f.baseCdb = append(f.baseCdb, quantCenti(float64(c.contribBaseDB[ref.Pos])))
				f.elevCdeg = append(f.elevCdeg, quantCenti(float64(c.contribElev[ref.Pos])))
			}
		}
		f.secStart[c.numSectors] = int32(len(f.grid))
		c.fixed = f
	})
	return c.fixed
}

// bytes returns the mirror's resident size.
func (f *fixedCore) bytes() int64 {
	return int64(len(f.secStart))*4 + int64(len(f.grid))*4 + int64(len(f.pos))*4 +
		int64(len(f.baseCdb))*2 + int64(len(f.elevCdeg))*2
}

// quantCenti rounds v to hundredths and clamps to the int16 domain.
func quantCenti(v float64) int16 {
	c := math.Round(v * 100)
	if c > math.MaxInt16 {
		return math.MaxInt16
	}
	if c < math.MinInt16 {
		return math.MinInt16
	}
	return int16(c)
}

// Centi-dB decade decomposition tables: mwFromCdb(c) = 10^(c/1000) for a
// received power expressed in centi-dBm. fxDecadeMin/Max bound the
// decades reachable from any int32 sum of quantized terms used here
// (power ≤ ~70 dBm, link ≥ ~-327 dB): [-66, 66] decades is ±660 dB.
const (
	fxDecadeMin = -66
	fxDecadeMax = 66
)

var (
	fxDecade [fxDecadeMax - fxDecadeMin + 1]float64 // 10^q
	fxFrac   [1000]float64                          // 10^(r/1000), r in centi-dB
)

func init() {
	for q := fxDecadeMin; q <= fxDecadeMax; q++ {
		fxDecade[q-fxDecadeMin] = math.Pow(10, float64(q))
	}
	for r := range fxFrac {
		fxFrac[r] = math.Pow(10, float64(r)/1000)
	}
}

// mwFromCdb converts a power in centi-dBm to milliwatts via the decade
// tables. Values below the table floor (-660 dBm) return 0; above the
// ceiling they saturate at the last decade (unreachable for real link
// budgets).
func mwFromCdb(cdb int32) float64 {
	q := cdb / 1000
	r := cdb % 1000
	if r < 0 {
		q--
		r += 1000
	}
	if q < fxDecadeMin {
		return 0
	}
	if q > fxDecadeMax {
		q = fxDecadeMax
	}
	return fxDecade[q-fxDecadeMin] * fxFrac[r]
}
