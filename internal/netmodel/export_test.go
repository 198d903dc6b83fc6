package netmodel

import "math"

// kpiBranches classifies every sector the way KPIUtility's log-utility
// read does at the current load factor: priced from its totals (λ below
// its smallest bucket L, nothing on the 1 kbps clamp) or by walking its
// buckets.
func (s *State) kpiBranches() (totals, walked int) {
	lf := math.Log10(s.Model.ueFactor)
	for b := range s.aggSt {
		if st := &s.aggSt[b]; st.lambda(s.load[b], lf) < st.minL {
			totals++
		} else {
			walked++
		}
	}
	return totals, walked
}
