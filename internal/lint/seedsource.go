package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// SeedSource bans ambient entropy and wall-clock reads in simulation
// packages. Every random draw must come from an internal/xrand stream
// whose seed derives positionally from the run seed
// (runner.DeriveSeed), and simulated time comes from the des clock —
// otherwise a rerun with the same seed is not byte-identical, which
// breaks the repository's standing determinism contract.
//
// Flagged in simulation packages (repro and repro/internal/... except
// xrand itself and the lint suite):
//
//   - importing math/rand, math/rand/v2, or crypto/rand;
//   - calling time.Now, Since, Until, Sleep, After, Tick, NewTicker,
//     NewTimer, or AfterFunc.
//
// Wall-clock measurement that never feeds simulation state (benchmark
// timing around a run) carries `//hvdb:wallclock <reason>`.
var SeedSource = &Analyzer{
	Name:        "seedsource",
	SuppressKey: "wallclock",
	Doc: "ban time.Now and math/rand / crypto/rand in simulation packages; " +
		"randomness flows through internal/xrand, time through the des clock",
	Run: runSeedSource,
}

// bannedImports are entropy sources outside the seeded xrand streams.
var bannedImports = map[string]string{
	"math/rand":    "use internal/xrand streams seeded via runner.DeriveSeed",
	"math/rand/v2": "use internal/xrand streams seeded via runner.DeriveSeed",
	"crypto/rand":  "simulation randomness must be reproducible; use internal/xrand",
}

// wallClockFuncs are the time package's wall-clock reads and timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// simulationPackage reports whether path is governed by the
// determinism contract. CLIs under cmd/ drive runs and may time them;
// xrand is the sanctioned entropy source; the lint suite is tooling.
func simulationPackage(path string) bool {
	if path == "repro" {
		return true
	}
	if !strings.HasPrefix(path, "repro/internal/") {
		return false
	}
	switch strings.TrimPrefix(path, "repro/internal/") {
	case "xrand", "lint", "lint/linttest":
		return false
	}
	return true
}

func runSeedSource(pass *Pass) {
	if !simulationPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				pass.Reportf(spec.Pos(), "import %s in a simulation package: %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg, ok := pass.Info.ObjectOf(x).(*types.PkgName)
			if !ok || pkg.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in a simulation package; simulated time comes from the des clock (annotate //hvdb:wallclock <reason> for benchmark timing)",
				sel.Sel.Name)
			return true
		})
	}
}
