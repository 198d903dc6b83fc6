package chaos

import (
	"reflect"
	"testing"
)

// FuzzParse hammers the chaos grammar with arbitrary operator input:
// Parse either errors or returns a plan whose String form parses back
// to an equal plan, and Split (the combined /execute fault script)
// never panics.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"push-error@2",
		"push-error@2x3",
		"push-delay@1+50",
		"kpi-loss@4x2",
		"kpi-breach@3",
		"kpi-breach@3x5",
		"crash-before-push@1,crash-before-commit@2,crash-after-commit@7",
		"kpi-breach@2,kpi-loss@1x2",
		" push-error@1 , ,kpi-loss@2 ",
		"push-delay@1+3,sector-down@3:7",
		"push-error@+1x+2",
		"push-delay@1+9223372036855",
		"kpi-breach@1x0",
		"bogus@1",
		"push-delay@1",
		"crash-after-commit@0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		_, _, _ = Split(script) // must not panic; errors are fine
		p, err := Parse(script)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("plan %q (from %q) does not re-parse: %v", p.String(), script, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round-trip changed %+v to %+v (from %q)", p, back, script)
		}
	})
}
