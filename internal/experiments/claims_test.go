package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	v1 "respin/internal/api/v1"
)

// claimsGolden records every claim of a quick reproduction at full
// precision. Regenerate it deliberately with
// UPDATE_GOLDEN=1 go test -run TestClaims ./internal/experiments
// and explain the change in CHANGES.md.
var claimsGolden = filepath.Join("testdata", "claims_quick.json")

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// quickReproduction measures every claimTable row at QuickRunner
// quota: the quick evaluation, the Figure 13 trace quick mode leaves
// out, and the design ablations, all on one runner. The extra rows are
// measured beside All, so the runner's pool stays full. It returns the
// Suite and every claim (the Suite's plus the extra rows). TestClaims,
// TestCalibrationReport and TestSuiteReport share the one build; none
// may modify what it returns.
var quickReproduction = sync.OnceValues(func() (*Suite, []Claim) {
	r := QuickRunner()
	var extra []Claim
	done := make(chan struct{})
	go func() {
		defer close(done)
		extra = append([]Claim{r.ConsolidationTrace("lu").Claim()}, r.Ablations()...)
	}()
	s := r.All()
	<-done
	return s, append(slices.Clip(s.Claims), extra...)
})

func loadClaims(t *testing.T) []Claim {
	t.Helper()
	data, err := os.ReadFile(claimsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var claims []Claim
	if err := json.Unmarshal(data, &claims); err != nil {
		t.Fatalf("%s: %v", claimsGolden, err)
	}
	return claims
}

// TestClaims is the paper-fidelity gate and the drift gate in one: a
// quick reproduction must keep every value in its band and every
// ordering of the paper, and must reproduce the recorded claims
// exactly (the simulator is deterministic).
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a quick reproduction")
	}
	_, got := quickReproduction()
	for _, p := range checkClaims(got) {
		t.Error(p)
	}
	if updateGolden {
		data, err := v1.EncodeBytes(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(claimsGolden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, p := range diffClaims(loadClaims(t), got) {
		t.Errorf("%s (regenerate deliberately with UPDATE_GOLDEN=1)", p)
	}
}

// TestCalibrationReport renders the paper-vs-measured table of every
// claim the quick reproduction measures, including the rows the report
// leaves out (the Figure 13 lu trace and the ablations), and logs it
// (run with -v). Each row must carry its paper value and render its
// measured values without a formatting error.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a quick reproduction")
	}
	_, claims := quickReproduction()
	table := RenderClaims("Paper vs measured, quick reproduction", claims)
	t.Log("\n" + table)
	for _, c := range claims {
		measured := c.Measured()
		switch {
		case c.Paper == "":
			t.Errorf("%s %q: no paper value", c.Artifact, c.Metric)
		case strings.Contains(measured, "%!"):
			t.Errorf("%s %q: values %v do not fit format %q: %s", c.Artifact, c.Metric, c.Values, c.Format, measured)
		case !strings.Contains(table, measured):
			t.Errorf("%s %q: %q missing from the table", c.Artifact, c.Metric, measured)
		}
	}
}

// damaged returns a deep copy of claims and the index of metric in it,
// for the gate tests to damage one row.
func damaged(t *testing.T, claims []Claim, metric string) ([]Claim, int) {
	t.Helper()
	out := make([]Claim, len(claims))
	at := -1
	for i, c := range claims {
		c.Values = append([]float64(nil), c.Values...)
		out[i] = c
		if c.Metric == metric {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("no recorded claim %q", metric)
	}
	return out, at
}

// gateCase is one kind of damage to the recorded claims and the
// problem a checker must report for it.
type gateCase struct {
	name  string
	want  string
	build func() []Claim
}

func runGateCases(t *testing.T, check func([]Claim) []string, cases []gateCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := check(tc.build())
			if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
				t.Fatalf("problems %q do not report %q", problems, tc.want)
			}
		})
	}
}

// TestClaimsGateFails proves the fidelity half of the gate on
// synthetic rows, without a simulation: the recorded claims pass
// checkClaims, and a value out of band, a flipped ordering and a
// missing row each fail it.
func TestClaimsGateFails(t *testing.T) {
	golden := loadClaims(t)
	if p := checkClaims(golden); len(p) != 0 {
		t.Fatalf("recorded claims fail their own bands: %v", p)
	}
	runGateCases(t, checkClaims, []gateCase{
		{"value out of band", "outside band", func() []Claim {
			c, i := damaged(t, golden, "reads serviced in 1 core cycle")
			c[i].Values[0] = c[i].Bands[0].Hi + 0.1
			return c
		}},
		{"flipped ordering", `ordering "SH-STT-CC < SH-STT < PR-SRAM-NT energy"`, func() []Claim {
			c, cc := damaged(t, golden, "SH-STT-CC energy")
			_, stt := damaged(t, golden, "SH-STT energy")
			c[cc].Values[0], c[stt].Values[0] = c[stt].Values[0], c[cc].Values[0]
			return c
		}},
		{"missing row", "row missing", func() []Claim {
			c, i := damaged(t, golden, "half-miss rate")
			return append(c[:i], c[i+1:]...)
		}},
	})
}

// TestClaimsDiffClean shows that the drift gate passes the recorded
// claims against themselves and does not report decimal round-trip
// noise as drift.
func TestClaimsDiffClean(t *testing.T) {
	golden := loadClaims(t)
	if p := diffClaims(golden, golden); len(p) != 0 {
		t.Fatalf("recorded claims differ from themselves: %v", p)
	}
	c, i := damaged(t, golden, "SH-STT energy")
	c[i].Values[0] *= 1 + 1e-12
	if p := diffClaims(golden, c); len(p) != 0 {
		t.Errorf("1e-12 relative noise reported as drift: %v", p)
	}
}

// TestClaimsDiffDriftAndMissing proves the drift half of the gate on
// synthetic rows: a row missing against the recorded set, a row the
// recorded set lacks, a value that moved and a changed band each fail
// diffClaims.
func TestClaimsDiffDriftAndMissing(t *testing.T) {
	golden := loadClaims(t)
	runGateCases(t, func(c []Claim) []string { return diffClaims(golden, c) }, []gateCase{
		{"missing row vs recorded", "row missing", func() []Claim {
			c, i := damaged(t, golden, "lu energy saving, greedy vs oracle")
			return append(c[:i], c[i+1:]...)
		}},
		{"row not recorded", "not in the recorded set", func() []Claim {
			c, i := damaged(t, golden, "half-miss rate")
			c[i].Metric += " (renamed)"
			return c
		}},
		{"value differs from recorded", "recorded", func() []Claim {
			c, i := damaged(t, golden, "SH-STT energy, small/medium/large")
			c[i].Values[1] *= 1 + 1e-6
			return c
		}},
		{"band changed vs recorded", "definition changed", func() []Claim {
			c, i := damaged(t, golden, "half-miss rate")
			c[i].Bands = []Band{{0, 100}}
			return c
		}},
	})
}

// TestClaimTableWellFormed checks the table itself: unique metrics,
// non-empty bands, and one format verb per band.
func TestClaimTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claimTable {
		if seen[c.Metric] {
			t.Errorf("metric %q defined twice", c.Metric)
		}
		seen[c.Metric] = true
		for _, b := range c.Bands {
			if b.Lo > b.Hi {
				t.Errorf("%q: empty band [%v, %v]", c.Metric, b.Lo, b.Hi)
			}
		}
		if c.Format != "%t" && strings.Count(strings.ReplaceAll(c.Format, "%%", ""), "%") != len(c.Bands) {
			t.Errorf("%q: format %q does not have one verb per band (%d)", c.Metric, c.Format, len(c.Bands))
		}
	}
	if got := claim("0.65V rail safe for all SRAM arrays (SECDED)", 1).Measured(); got != "true" {
		t.Errorf("boolean claim renders %q, want true", got)
	}
}

// checkClaims checks a complete set of measured claims: every
// claimTable row present exactly once, every value inside its band, and
// every ordering holding. It returns one line per problem; none means
// the reproduction holds.
func checkClaims(claims []Claim) []string {
	var problems []string
	byMetric := make(map[string]Claim, len(claims))
	for _, c := range claims {
		if _, dup := byMetric[c.Metric]; dup {
			problems = append(problems, fmt.Sprintf("%s %q: measured twice", c.Artifact, c.Metric))
		}
		byMetric[c.Metric] = c
		if len(c.Values) != len(c.Bands) {
			problems = append(problems, fmt.Sprintf("%s %q: %d values for %d bands", c.Artifact, c.Metric, len(c.Values), len(c.Bands)))
			continue
		}
		for i, v := range c.Values {
			if v < c.Bands[i].Lo || v > c.Bands[i].Hi {
				problems = append(problems, fmt.Sprintf("%s %q: value %d = %v outside band [%v, %v]",
					c.Artifact, c.Metric, i, v, c.Bands[i].Lo, c.Bands[i].Hi))
			}
		}
	}
	for _, def := range claimTable {
		if _, ok := byMetric[def.Metric]; !ok {
			problems = append(problems, fmt.Sprintf("%s %q: row missing", def.Artifact, def.Metric))
		}
	}
	for _, o := range orderings {
		var seen []string
		ok := o.Holds(func(metric string) float64 {
			c, have := byMetric[metric]
			if !have || len(c.Values) == 0 {
				seen = append(seen, metric+" missing")
				return math.NaN()
			}
			seen = append(seen, fmt.Sprintf("%s = %v", metric, c.Values[0]))
			return c.Values[0]
		})
		if !ok {
			problems = append(problems, fmt.Sprintf("ordering %q does not hold (%s)", o.Name, strings.Join(seen, ", ")))
		}
	}
	return problems
}

// diffClaims compares measured claims against a recorded set row by
// row: a row missing from either side, a changed definition (paper
// value, format, bands, reason), or a value that moved by more than
// 1e-9 relative is a problem. The simulator is deterministic, so any
// drift means the model's behaviour changed.
func diffClaims(want, got []Claim) []string {
	var problems []string
	gotBy := make(map[string]Claim, len(got))
	for _, c := range got {
		gotBy[c.Metric] = c
	}
	wantBy := make(map[string]bool, len(want))
	for _, w := range want {
		wantBy[w.Metric] = true
		g, ok := gotBy[w.Metric]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s %q: row missing", w.Artifact, w.Metric))
		case !sameDefinition(w, g):
			problems = append(problems, fmt.Sprintf("%s %q: definition changed", w.Artifact, w.Metric))
		case len(w.Values) != len(g.Values):
			problems = append(problems, fmt.Sprintf("%s %q: %d values, recorded %d", w.Artifact, w.Metric, len(g.Values), len(w.Values)))
		default:
			for i := range w.Values {
				if !equalish(w.Values[i], g.Values[i]) {
					problems = append(problems, fmt.Sprintf("%s %q: value %d = %v, recorded %v",
						w.Artifact, w.Metric, i, g.Values[i], w.Values[i]))
				}
			}
		}
	}
	for _, g := range got {
		if !wantBy[g.Metric] {
			problems = append(problems, fmt.Sprintf("%s %q: not in the recorded set", g.Artifact, g.Metric))
		}
	}
	return problems
}

// sameDefinition compares two rows, values aside.
func sameDefinition(a, b Claim) bool {
	a.Values, b.Values = nil, nil
	return reflect.DeepEqual(a, b)
}

// equalish allows only decimal round-trip noise, not real drift.
func equalish(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
