package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The golden suites: each testdata package is loaded under a
// repro/internal/... import path (so seedsource treats it as a
// simulation package) and its want comments must match the analyzer's
// diagnostics exactly — including the annotation-policy diagnostics
// for bare, misspelled, and stale suppressions.

func TestMapOrderGolden(t *testing.T) {
	linttest.Run(t, "repro/internal/testdata/maporder",
		filepath.Join("testdata", "maporder"), lint.MapOrder)
}

func TestSeedSourceGolden(t *testing.T) {
	linttest.Run(t, "repro/internal/testdata/seedsource",
		filepath.Join("testdata", "seedsource"), lint.SeedSource)
}

// TestSeedSourceSkipsNonSimulationPackages loads the same corpus under
// a cmd/ import path: drivers may read the wall clock and use ambient
// entropy, so nothing may be reported (want comments are ignored by
// loading with no diagnostics expected).
func TestSeedSourceSkipsNonSimulationPackages(t *testing.T) {
	pkg, err := lint.LoadDir("repro/cmd/seedsource", filepath.Join("testdata", "seedsource"))
	if err != nil {
		t.Fatal(err)
	}
	res := lint.Analyze([]*lint.Package{pkg}, lint.SeedSource)
	for _, d := range res.Diags {
		if d.Analyzer == "seedsource" {
			t.Errorf("seedsource fired outside a simulation package: %s", d)
		}
	}
}

func TestPoolPairGolden(t *testing.T) {
	linttest.Run(t, "repro/internal/testdata/poolpair",
		filepath.Join("testdata", "poolpair"), lint.PoolPair)
}

// TestAnalyzersHaveDistinctKeys guards the annotation namespace: the
// suppression matcher routes by key, so two analyzers sharing one
// would let an exemption for one silence the other.
func TestAnalyzersHaveDistinctKeys(t *testing.T) {
	seen := map[string]string{}
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.SuppressKey == "" {
			t.Errorf("analyzer %+v missing metadata", a)
		}
		if prev, dup := seen[a.SuppressKey]; dup {
			t.Errorf("analyzers %s and %s share suppression key %q", prev, a.Name, a.SuppressKey)
		}
		seen[a.SuppressKey] = a.Name
	}
}
