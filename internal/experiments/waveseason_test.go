package experiments

import "testing"

// TestRunWaveSeason is the repo's acceptance check for the wave
// scheduler: under the experiment's tight calendar the annealed
// schedule must beat naive round-robin on season-wide minimum
// f(C_after), and both seasons must schedule the same sectors.
func TestRunWaveSeason(t *testing.T) {
	s, err := RunWaveSeason(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gap() <= 0 {
		t.Errorf("annealed min f(C_after) %.2f does not beat round-robin %.2f",
			s.Annealed.MinWaveUtility, s.Naive.MinWaveUtility)
	}
	if len(s.Annealed.Sectors) == 0 {
		t.Fatal("empty upgrade set")
	}
	if got, want := len(s.Naive.Sectors), len(s.Annealed.Sectors); got != want {
		t.Errorf("baseline schedules %d sectors, annealed %d", got, want)
	}
	if s.Annealed.ConflictEdges == 0 {
		t.Error("conflict graph empty: the tight calendar is not exercising co-darkening")
	}
	for _, w := range s.Annealed.Waves {
		if len(w.Sectors) > s.Annealed.Constraints.CrewsPerWave {
			t.Errorf("wave %d exceeds crew capacity: %v", w.Wave, w.Sectors)
		}
	}
	if out := s.String(); len(out) == 0 {
		t.Error("empty render")
	}
	if got := len(s.Timings()); got != 4 {
		t.Errorf("Timings() exported %d records, want 4", got)
	}
}
